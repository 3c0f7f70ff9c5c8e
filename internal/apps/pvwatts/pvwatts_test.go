package pvwatts

import (
	"fmt"
	"maps"
	"math"
	"sync/atomic"
	"testing"

	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/disruptor"
	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/pvgen"
)

// smallCSV is ~1 month-dense year of synthetic data shared across tests.
func smallCSV(t testing.TB, sorted bool) ([]byte, map[MonthKey]float64) {
	t.Helper()
	recs := pvgen.Generate(2000, 1, sorted, 42)
	return pvgen.CSV(recs), pvgen.MonthlyMeans(recs)
}

func sameMeans(t *testing.T, got, want map[MonthKey]float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d result months, want %d", label, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s: missing month %v", label, k)
		}
		if math.Abs(g-w) > 1e-9*(1+math.Abs(w)) {
			t.Errorf("%s: month %v mean = %v, want %v", label, k, g, w)
		}
	}
}

func TestBaselineMatchesReference(t *testing.T) {
	csv, want := smallCSV(t, false)
	got, err := RunBaseline(csv)
	if err != nil {
		t.Fatal(err)
	}
	sameMeans(t, got, want, "baseline")
}

func TestJStarVariantsAllAgree(t *testing.T) {
	csv, want := smallCSV(t, false)
	variants := []struct {
		name string
		opts RunOpts
	}{
		{"sequential", RunOpts{Strategy: exec.Sequential}},
		{"sequential-noDelta", RunOpts{Strategy: exec.Sequential, NoDelta: true}},
		{"parallel-2", RunOpts{Threads: 2, NoDelta: true}},
		{"parallel-4-hash", RunOpts{Threads: 4, NoDelta: true, Gamma: GammaHash}},
		{"parallel-4-arrayhash", RunOpts{Threads: 4, NoDelta: true, Gamma: GammaArrayOfHash}},
		{"parallel-noGamma-sum", RunOpts{Threads: 2, NoDelta: true, NoGamma: true}},
		{"readers-3", RunOpts{Threads: 4, NoDelta: true, Readers: 3}},
		{"parallel-reduce", RunOpts{Threads: 4, NoDelta: true, ParallelReduce: true}},
		{"parallel-reduce-seq", RunOpts{Strategy: exec.Sequential, ParallelReduce: true}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			res, err := RunJStar(csv, v.opts)
			if err != nil {
				t.Fatal(err)
			}
			sameMeans(t, res.Means, want, v.name)
			// One SumMonth put per reading, whichever of the step boundary
			// or the put slot's repeat drop discards the repeats.
			st := res.Run.Stats().Tables["SumMonth"]
			readings, months := int64(pvgen.RecordsPerYear), int64(len(want))
			if p, d := st.Puts.Load(), st.Duplicates.Load(); p != readings || d != readings-months {
				t.Errorf("SumMonth puts %d, duplicates %d; want %d and %d", p, d, readings, readings-months)
			}
		})
	}
}

// runCounters returns every TableStats counter of each table, and the
// run's TotalFired under the key "".
func runCounters(st *core.RunStats) map[string][7]int64 {
	out := map[string][7]int64{"": {atomic.LoadInt64(&st.TotalFired)}}
	for name, ts := range st.Tables {
		out[name] = [7]int64{ts.Puts.Load(), ts.Duplicates.Load(), ts.Triggers.Load(), ts.Queries.Load(),
			ts.IndexedQueries.Load(), ts.PrefixLenSum.Load(), ts.MinPrefixLen.Load()}
	}
	return out
}

// TestCountersExactAcrossThreads: firings count in their own put slots and
// the step boundary folds the slots together, so every counter — the
// tables', the rules' firings and the rule -> table dataflow — is a
// property of the program and its input, not of the schedule: one thread
// and two ForkJoin threads count the same, with and without -noDelta,
// where the reader's pool.For helpers share the firing's slot and fire
// the monthly rule inline.
func TestCountersExactAcrossThreads(t *testing.T) {
	csv, _ := smallCSV(t, false)
	for _, noDelta := range []bool{false, true} {
		t.Run(fmt.Sprintf("noDelta=%v", noDelta), func(t *testing.T) {
			var want map[string][7]int64
			var wantFlow map[[2]string]int64
			var wantFired map[string]int64
			for _, threads := range []int{1, 2} {
				res, err := RunJStar(csv, RunOpts{Strategy: exec.ForkJoin, Threads: threads, NoDelta: noDelta})
				if err != nil {
					t.Fatal(err)
				}
				st := res.Run.Stats()
				got, flow, fired := runCounters(st), st.FlowEdges(), st.RuleFirings()
				if want == nil {
					want, wantFlow, wantFired = got, flow, fired
					continue
				}
				if !maps.Equal(got, want) {
					t.Errorf("threads %d: counters %v, want the one-thread run's %v", threads, got, want)
				}
				if !maps.Equal(flow, wantFlow) {
					t.Errorf("threads %d: dataflow %v, want the one-thread run's %v", threads, flow, wantFlow)
				}
				if !maps.Equal(fired, wantFired) {
					t.Errorf("threads %d: rule firings %v, want the one-thread run's %v", threads, fired, wantFired)
				}
			}
		})
	}
}

func TestJStarDedupAndStats(t *testing.T) {
	csv, _ := smallCSV(t, false)
	res, err := RunJStar(csv, RunOpts{Strategy: exec.Sequential, NoDelta: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Run.Stats()
	// 8760 records put, only 12 unique SumMonth survive.
	if st.Tables["PvWatts"].Puts.Load() != int64(pvgen.RecordsPerYear) {
		t.Errorf("PvWatts puts = %d", st.Tables["PvWatts"].Puts.Load())
	}
	if st.Tables["SumMonth"].Triggers.Load() != 12 {
		t.Errorf("SumMonth triggers = %d, want 12", st.Tables["SumMonth"].Triggers.Load())
	}
	if d := st.Tables["SumMonth"].Duplicates.Load(); d != int64(pvgen.RecordsPerYear-12) {
		t.Errorf("SumMonth dups = %d", d)
	}
}

func TestNoDeltaReducesSteps(t *testing.T) {
	csv, _ := smallCSV(t, false)
	with, err := RunJStar(csv, RunOpts{Strategy: exec.Sequential, NoDelta: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := RunJStar(csv, RunOpts{Strategy: exec.Sequential, NoDelta: false})
	if err != nil {
		t.Fatal(err)
	}
	if with.Run.Stats().Steps >= without.Run.Stats().Steps {
		t.Errorf("noDelta steps %d must be fewer than %d",
			with.Run.Stats().Steps, without.Run.Stats().Steps)
	}
}

func TestDisruptorMatchesReference(t *testing.T) {
	for _, sorted := range []bool{false, true} {
		csv, want := smallCSV(t, sorted)
		for _, consumers := range []int{1, 3, 12} {
			opts := disruptor.Defaults()
			opts.Consumers = consumers
			got, err := RunDisruptor(csv, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameMeans(t, got, want, opts.String())
		}
	}
}

func TestDisruptorWaitStrategies(t *testing.T) {
	csv, want := smallCSV(t, false)
	for _, w := range []disruptor.WaitStrategy{
		&disruptor.BlockingWait{}, disruptor.YieldingWait{}, disruptor.BusySpinWait{},
	} {
		opts := disruptor.Defaults()
		opts.Wait = w
		opts.RingSize = 256
		opts.ClaimBatch = 64
		got, err := RunDisruptor(csv, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameMeans(t, got, want, w.Name())
	}
}

// TestTraceDataflowEdges: every run records the rule -> table dataflow,
// the inline -noDelta firings' puts included.
func TestTraceDataflowEdges(t *testing.T) {
	csv, _ := smallCSV(t, false)
	readings := int64(pvgen.RecordsPerYear)
	for _, noDelta := range []bool{false, true} {
		res, err := RunJStar(csv, RunOpts{Strategy: exec.Sequential, NoDelta: noDelta})
		if err != nil {
			t.Fatal(err)
		}
		want := map[[2]string]int64{
			{"put", "PvWattsRequest"}: 1,
			{"readCSV", "PvWatts"}:    readings,
			{"monthly", "SumMonth"}:   readings,
			{"reduce", "Result"}:      12,
		}
		if flow := res.Run.Stats().FlowEdges(); !maps.Equal(flow, want) {
			t.Errorf("noDelta=%v: flow edges %v, want %v", noDelta, flow, want)
		}
	}
}
