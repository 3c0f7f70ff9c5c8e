package exec_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"github.com/jstar-lang/jstar/internal/apps/matmult"
	"github.com/jstar-lang/jstar/internal/apps/median"
	"github.com/jstar-lang/jstar/internal/apps/pvwatts"
	"github.com/jstar-lang/jstar/internal/apps/shortestpath"
	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/lang"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// strategies is the full menu the parity suite sweeps. Every app must
// produce identical results and final Gamma contents under each.
var strategies = []exec.Strategy{exec.Sequential, exec.ForkJoin, exec.Auto}

const parityThreads = 4

// gammaSnapshot renders every table's final contents as a sorted line set,
// so two runs can be compared table by table regardless of store backend
// or insertion order.
func gammaSnapshot(t *testing.T, run *core.Run) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for _, s := range run.Program().Tables() {
		var lines []string
		run.Gamma().Table(s).Scan(func(tp *tuple.Tuple) bool {
			line := s.Name + "("
			for i := 0; i < s.Arity(); i++ {
				if i > 0 {
					line += ","
				}
				line += fmt.Sprint(tp.Field(i))
			}
			lines = append(lines, line+")")
			return true
		})
		sort.Strings(lines)
		out[s.Name] = lines
	}
	return out
}

func assertSameGamma(t *testing.T, strategy exec.Strategy, want, got map[string][]string) {
	t.Helper()
	for table, w := range want {
		g := got[table]
		if len(w) != len(g) {
			t.Errorf("%v: table %s has %d tuples, sequential had %d", strategy, table, len(g), len(w))
			continue
		}
		for i := range w {
			if w[i] != g[i] {
				t.Errorf("%v: table %s differs at tuple %d: %s vs %s", strategy, table, i, g[i], w[i])
				break
			}
		}
	}
}

func TestParityMatMult(t *testing.T) {
	const n = 24
	ref, err := matmult.RunJStar(matmult.RunOpts{N: n, Strategy: exec.Sequential, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	refGamma := gammaSnapshot(t, ref.Run)
	for _, s := range strategies[1:] {
		got, err := matmult.RunJStar(matmult.RunOpts{N: n, Strategy: s, Threads: parityThreads, Seed: 42})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !reflect.DeepEqual(ref.C, got.C) {
			t.Errorf("%v: product matrix differs from sequential", s)
		}
		assertSameGamma(t, s, refGamma, gammaSnapshot(t, got.Run))
	}
}

func TestParityMedian(t *testing.T) {
	opts := median.RunOpts{N: 20000, Regions: 6, Seed: 42}
	opts.Strategy = exec.Sequential
	ref, err := median.RunJStar(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range strategies[1:] {
		opts.Strategy = s
		opts.Threads = parityThreads
		got, err := median.RunJStar(opts)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if ref.Median != got.Median {
			t.Errorf("%v: median = %v, sequential = %v", s, got.Median, ref.Median)
		}
	}
}

func TestParityPvWatts(t *testing.T) {
	csv := pvwatts.GenerateCSV(1, false, 42)
	ref, err := pvwatts.RunJStar(csv, pvwatts.RunOpts{Strategy: exec.Sequential, NoDelta: true})
	if err != nil {
		t.Fatal(err)
	}
	refGamma := gammaSnapshot(t, ref.Run)
	for _, s := range strategies[1:] {
		got, err := pvwatts.RunJStar(csv, pvwatts.RunOpts{
			Strategy: s, Threads: parityThreads, NoDelta: true})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !reflect.DeepEqual(ref.Means, got.Means) {
			t.Errorf("%v: monthly means differ from sequential:\n%v\nvs\n%v", s, got.Means, ref.Means)
		}
		assertSameGamma(t, s, refGamma, gammaSnapshot(t, got.Run))
	}
}

func TestParityShortestPath(t *testing.T) {
	gen := shortestpath.GenOpts{Vertices: 600, Extra: 1200, Tasks: 8, Seed: 42}
	ref, err := shortestpath.RunJStar(shortestpath.RunOpts{Gen: gen, Strategy: exec.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range strategies[1:] {
		got, err := shortestpath.RunJStar(shortestpath.RunOpts{
			Gen: gen, Strategy: s, Threads: parityThreads})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !reflect.DeepEqual(ref.Dist, got.Dist) {
			t.Errorf("%v: distances differ from sequential", s)
		}
	}
}

// batchParityProgram builds a synthetic program that stresses the batched
// dispatch path: one Src tuple fans out n Work tuples in a single step
// batch, and two per-tuple rules fire on every Work tuple, so each
// schema group carries more than one rule. Both rules look up the
// preloaded Lookup table (inserted in an earlier causal step) and put the
// doubled value, into OutA and OutB respectively, so the two rules must
// produce identical relations whatever chunking the strategy picks.
func batchParityProgram(n int) *core.Program {
	p := core.NewProgram()
	lit := func(name string) []tuple.OrderEntry { return []tuple.OrderEntry{tuple.Lit(name)} }
	icol := func(name string) tuple.Column { return tuple.Column{Name: name, Kind: tuple.KindInt} }
	lookup := p.Table("Lookup", []tuple.Column{icol("i"), icol("v")}, lit("Lookup"))
	src := p.Table("Src", []tuple.Column{icol("n")}, lit("Src"))
	work := p.Table("Work", []tuple.Column{icol("i")}, lit("Work"))
	outA := p.Table("OutA", []tuple.Column{icol("i"), icol("v")}, lit("OutA"))
	outB := p.Table("OutB", []tuple.Column{icol("i"), icol("v")}, lit("OutB"))
	p.Order("Lookup", "Src", "Work", "OutA", "OutB")

	p.Rule("fanout", src, func(c *core.Ctx, t *tuple.Tuple) {
		for i := int64(0); i < t.Int("n"); i++ {
			c.PutNew(work, tuple.Int(i))
		}
	})
	p.Rule("plain", work, func(c *core.Ctx, t *tuple.Tuple) {
		c.ForEach(lookup, gamma.Query{Prefix: []tuple.Value{t.Get("i")}}, func(l *tuple.Tuple) bool {
			c.PutNew(outA, t.Get("i"), tuple.Int(2*l.Int("v")))
			return true
		})
	})
	p.Rule("twin", work, func(c *core.Ctx, t *tuple.Tuple) {
		c.ForEach(lookup, gamma.Query{Prefix: []tuple.Value{t.Get("i")}}, func(l *tuple.Tuple) bool {
			c.PutNew(outB, t.Get("i"), tuple.Int(2*l.Int("v")))
			return true
		})
	})

	for i := int64(0); i < int64(n); i++ {
		p.Put(tuple.New(lookup, tuple.Int(i), tuple.Int(i*i%97)))
	}
	p.Put(tuple.New(src, tuple.Int(int64(n))))
	return p
}

// TestParityFireBatch runs the synthetic batch program across every
// strategy and batch sizes chosen to straddle worker-slot chunk
// boundaries (1 = the lone-chunk fast path; 3 < one chunk per worker;
// 103 and 1030 split unevenly across 4 workers' grain-sized chunks). The
// final Gamma contents, the OutA/OutB agreement between the two rules of
// one schema group, and the folded firing counters must all match sequential execution.
func TestParityFireBatch(t *testing.T) {
	for _, n := range []int{1, 3, 103, 1030} {
		var refGamma map[string][]string
		var refFired int64
		for si, s := range append([]exec.Strategy{exec.Sequential}, strategies[1:]...) {
			p := batchParityProgram(n)
			run, err := p.Execute(core.Options{Strategy: s, Threads: parityThreads, Quiet: true})
			if err != nil {
				t.Fatalf("n=%d %v: %v", n, s, err)
			}
			got := gammaSnapshot(t, run)
			wantOut := make([]string, n)
			for i := range wantOut {
				wantOut[i] = fmt.Sprintf("(%d,%d)", i, 2*(int64(i)*int64(i)%97))
			}
			sort.Strings(wantOut)
			for _, table := range []string{"OutA", "OutB"} {
				if len(got[table]) != n {
					t.Fatalf("n=%d %v: table %s has %d tuples, want %d", n, s, table, len(got[table]), n)
				}
				for i, line := range got[table] {
					if line != table+wantOut[i] {
						t.Errorf("n=%d %v: %s[%d] = %s, want %s%s", n, s, table, i, line, table, wantOut[i])
					}
				}
			}
			fired := run.Stats().TotalFired
			if want := int64(1 + 2*n); fired != want {
				t.Errorf("n=%d %v: TotalFired = %d, want %d", n, s, fired, want)
			}
			if run.Stats().FireBatches.Load() == 0 {
				t.Errorf("n=%d %v: no FireBatch dispatches recorded", n, s)
			}
			if si == 0 {
				refGamma, refFired = got, fired
				continue
			}
			assertSameGamma(t, s, refGamma, got)
			if fired != refFired {
				t.Errorf("n=%d %v: TotalFired = %d, sequential had %d", n, s, fired, refFired)
			}
		}
	}
}

// TestParityAuto: the default strategy must agree with Sequential and
// report itself by name.
func TestParityAuto(t *testing.T) {
	const n = 24
	ref, err := matmult.RunJStar(matmult.RunOpts{N: n, Strategy: exec.Sequential, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	got, err := matmult.RunJStar(matmult.RunOpts{N: n, Strategy: exec.Auto, Threads: parityThreads, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.C, got.C) {
		t.Error("auto: product matrix differs from sequential")
	}
	if name := got.Run.StrategyName(); name != "auto" {
		t.Errorf("StrategyName() = %q, want auto", name)
	}
}

// fanoutSrc is the program the service workloads host (benchmark/serve.go).
const fanoutSrc = `
table Event(int n) orderby (Event)
table Out(int n, int v) orderby (Out)
order Event < Out

foreach (Event e) {
  put new Out(e.n, e.n * 2)
}
`

// TestParityGate: the one step loop must be observationally the same
// program whatever its gate does. Every paper app and the service's
// fan-out program run with the gate forced closed (Sequential), forced
// open (ForkJoin) and measured (Auto, on the real clock — whichever way
// it decides), at GOMAXPROCS 1, 2 and 4, and must agree on the result, the
// quiesced Gamma contents, the step count and every table's
// Puts/Duplicates/Triggers.
func TestParityGate(t *testing.T) {
	csv := pvwatts.GenerateCSV(1, false, 42)
	gen := shortestpath.GenOpts{Vertices: 600, Extra: 1200, Tasks: 8, Seed: 42}
	apps := []struct {
		name string
		// loose names a table whose put count (and with it the step count)
		// legitimately depends on how firings interleave inside one batch.
		loose string
		run   func(s exec.Strategy) (*core.Run, any, error)
	}{
		{"matmult", "", func(s exec.Strategy) (*core.Run, any, error) {
			r, err := matmult.RunJStar(matmult.RunOpts{N: 24, Strategy: s, Threads: parityThreads, Seed: 42})
			if err != nil {
				return nil, nil, err
			}
			return r.Run, r.C, nil
		}},
		{"median", "", func(s exec.Strategy) (*core.Run, any, error) {
			r, err := median.RunJStar(median.RunOpts{N: 20000, Regions: 6, Seed: 42, Strategy: s, Threads: parityThreads})
			if err != nil {
				return nil, nil, err
			}
			return r.Run, r.Median, nil
		}},
		{"pvwatts", "", func(s exec.Strategy) (*core.Run, any, error) {
			// Readers pinned: the reader count is a program input here, and
			// without it would follow the strategy's thread count.
			r, err := pvwatts.RunJStar(csv, pvwatts.RunOpts{Strategy: s, Threads: parityThreads, Readers: 2})
			if err != nil {
				return nil, nil, err
			}
			return r.Run, r.Means, nil
		}},
		// -noDelta Done is written and read by batch-mates (Fig 5), so how
		// many Estimates a batch puts for vertices being finished beside it
		// is the schedule's to decide under any parallel firing.
		{"shortestpath", "Estimate", func(s exec.Strategy) (*core.Run, any, error) {
			r, err := shortestpath.RunJStar(shortestpath.RunOpts{Gen: gen, Strategy: s, Threads: parityThreads})
			if err != nil {
				return nil, nil, err
			}
			return r.Run, r.Dist, nil
		}},
		{"serve-fanout", "", func(s exec.Strategy) (*core.Run, any, error) {
			p, err := lang.CompileSource(fanoutSrc)
			if err != nil {
				return nil, nil, err
			}
			for i := int64(0); i < 3000; i++ {
				p.Put(tuple.New(p.Schema("Event"), tuple.Int(i*7919%3001)))
			}
			r, err := p.Execute(core.Options{Strategy: s, Threads: parityThreads, Quiet: true})
			return r, nil, err
		}},
	}
	type counters struct{ Puts, Duplicates, Triggers int64 }
	observe := func(run *core.Run, loose string) (int64, map[string]counters) {
		st := run.Stats()
		out := make(map[string]counters, len(st.Tables))
		for name, ts := range st.Tables {
			if name != loose {
				out[name] = counters{ts.Puts.Load(), ts.Duplicates.Load(), ts.Triggers.Load()}
			}
		}
		if loose != "" {
			return 0, out
		}
		return st.Steps, out
	}
	for _, app := range apps {
		t.Run(app.name, func(t *testing.T) {
			ref, refResult, err := app.run(exec.Sequential)
			if err != nil {
				t.Fatal(err)
			}
			refGamma := gammaSnapshot(t, ref)
			refSteps, refCounters := observe(ref, app.loose)
			for _, procs := range []int{1, 2, 4} {
				for _, s := range []exec.Strategy{exec.Sequential, exec.ForkJoin, exec.Auto} {
					func() {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						where := fmt.Sprintf("GOMAXPROCS=%d %v", procs, s)
						got, result, err := app.run(s)
						if err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						if !reflect.DeepEqual(refResult, result) {
							t.Errorf("%s: result differs from sequential", where)
						}
						assertSameGamma(t, s, refGamma, gammaSnapshot(t, got))
						steps, counts := observe(got, app.loose)
						if steps != refSteps {
							t.Errorf("%s: %d steps, sequential took %d", where, steps, refSteps)
						}
						if !reflect.DeepEqual(counts, refCounters) {
							t.Errorf("%s: table counters differ\n got %v\nwant %v", where, counts, refCounters)
						}
						if s == exec.Sequential && got.Stats().FannedSteps != 0 {
							t.Errorf("%s: %d steps fanned out", where, got.Stats().FannedSteps)
						}
					}()
				}
			}
		})
	}
}
