package shortestpath

import (
	"sync/atomic"
	"testing"

	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/exec"
)

func TestBaselineTinyGraph(t *testing.T) {
	// 0 -1-> 1 -1-> 2, plus a long direct edge 0 -9-> 2.
	edges := []Edge{{0, 1, 1}, {1, 2, 1}, {0, 2, 9}}
	d := Baseline(edges, 3)
	if d[0] != 0 || d[1] != 1 || d[2] != 2 {
		t.Errorf("distances = %v", d)
	}
}

func TestBaselineUnreachable(t *testing.T) {
	d := Baseline([]Edge{{0, 1, 5}}, 3)
	if d[2] != -1 {
		t.Errorf("vertex 2 should be unreachable, got %d", d[2])
	}
}

func TestGenerateConnectivityAndDeterminism(t *testing.T) {
	o := GenOpts{Vertices: 500, Extra: 1000, Tasks: 8, Seed: 42}
	edges := Generate(o)
	if len(edges) != 499+1000 {
		t.Fatalf("edges = %d", len(edges))
	}
	for _, e := range edges {
		if e.Value < 1 || e.Value > 10 {
			t.Fatalf("edge weight %d out of 1..10", e.Value)
		}
		if e.From < 0 || int(e.From) >= o.Vertices || e.To < 0 || int(e.To) >= o.Vertices {
			t.Fatalf("edge endpoint out of range: %+v", e)
		}
	}
	// Spanning tree makes every vertex reachable from 0.
	d := Baseline(edges, o.Vertices)
	for v, dv := range d {
		if dv < 0 {
			t.Fatalf("vertex %d unreachable (tree edges must connect)", v)
		}
	}
	again := Generate(o)
	for i := range edges {
		if edges[i] != again[i] {
			t.Fatal("generation must be deterministic")
		}
	}
}

func TestGenerateTaskCountInvariance(t *testing.T) {
	// Different task splits produce different interleavings but the same
	// per-task-owned vertices; with the same seed the task RNG streams are
	// fixed, so distances must match across task counts only via the
	// baseline on each generated graph (each is a valid random graph).
	for _, tasks := range []int{1, 3, 24} {
		o := GenOpts{Vertices: 200, Extra: 200, Tasks: tasks, Seed: 7}
		d := Baseline(Generate(o), o.Vertices)
		for v, dv := range d {
			if dv < 0 {
				t.Fatalf("tasks=%d: vertex %d unreachable", tasks, v)
			}
		}
	}
}

func TestJStarMatchesBaseline(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts RunOpts
	}{
		{"seq-small", RunOpts{Gen: GenOpts{Vertices: 300, Extra: 600, Tasks: 4, Seed: 11}, Strategy: exec.Sequential}},
		{"par-small", RunOpts{Gen: GenOpts{Vertices: 300, Extra: 600, Tasks: 4, Seed: 11}, Threads: 4}},
		{"par-bigger", RunOpts{Gen: GenOpts{Vertices: 2000, Extra: 4000, Tasks: 24, Seed: 13}, Threads: 8}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			res, err := RunJStar(cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			want := Baseline(Generate(cfg.opts.Gen), cfg.opts.Gen.Vertices)
			for v := range want {
				if res.Dist[v] != want[v] {
					t.Fatalf("vertex %d: jstar %d vs baseline %d", v, res.Dist[v], want[v])
				}
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
// the step boundary folds the slots together, so at one thread and at two
// ForkJoin threads every counter is exact. Only some are the same at both:
// Done is -noDelta, so a firing sees the Done tuples its step-mates put
// before it, and how many Estimates a step puts depends on the schedule.
// The rest must match, and every counter must obey the program's laws
// and the ledger's.
func TestCountersExactAcrossThreads(t *testing.T) {
	gen := GenOpts{Vertices: 300, Extra: 600, Tasks: 4, Seed: 11}
	distinct := make(map[Edge]bool)
	for _, e := range Generate(gen) {
		distinct[e] = true
	}
	var first map[string][7]int64
	for _, threads := range []int{1, 2} {
		res, err := RunJStar(RunOpts{Gen: gen, Strategy: exec.ForkJoin, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		c := runCounters(res.Run.Stats())
		reached := int64(0)
		for _, d := range res.Dist {
			if d >= 0 {
				reached++
			}
		}
		const puts, dups, triggers, queries, indexed, plen, minp = 0, 1, 2, 3, 4, 5, 6
		est, done, edge := c["Estimate"], c["Done"], c["Edge"]
		for _, law := range []struct {
			name      string
			got, want int64
		}{
			{"TotalFired = GenTask + Estimate triggers", c[""][0], c["GenTask"][triggers] + est[triggers]},
			{"Estimate puts = duplicates + triggers", est[puts], est[dups] + est[triggers]},
			{"Done puts = vertices reached", done[puts], reached},
			{"Edge queries = Done puts", edge[queries], done[puts]},
			{"Done queries = Estimate triggers + distinct edges", done[queries], est[triggers] + int64(len(distinct))},
			{"Done queries all one-column probes", done[plen], done[queries]},
			{"Edge puts - duplicates = distinct edges", edge[puts] - edge[dups], int64(len(distinct))},
		} {
			if law.got != law.want {
				t.Errorf("threads %d: %s: %d, want %d", threads, law.name, law.got, law.want)
			}
		}
		// The ledger's laws: each table's dataflow edges sum to its puts,
		// and the rules' firings to TotalFired.
		st := res.Run.Stats()
		flowPuts := make(map[string]int64)
		for e, n := range st.FlowEdges() {
			flowPuts[e[1]] += n
		}
		for name, x := range c {
			if name != "" && flowPuts[name] != x[puts] {
				t.Errorf("threads %d: %s: dataflow edges sum to %d, puts %d", threads, name, flowPuts[name], x[puts])
			}
		}
		var fired int64
		for _, n := range st.RuleFirings() {
			fired += n
		}
		if fired != c[""][0] {
			t.Errorf("threads %d: rule firings sum to %d, TotalFired %d", threads, fired, c[""][0])
		}
		for _, name := range []string{"Done", "Edge"} {
			if x := c[name]; x[indexed] != x[queries] || x[minp] != 1 {
				t.Errorf("threads %d: %s counters %v: want every query a one-column probe", threads, name, x)
			}
		}
		if first == nil {
			first = c
			continue
		}
		for _, name := range []string{"GenTask", "Edge"} {
			if c[name] != first[name] {
				t.Errorf("%s: two threads count %v, one thread %v", name, c[name], first[name])
			}
		}
		if c["Done"][puts] != first["Done"][puts] {
			t.Errorf("Done puts: two threads %d, one thread %d", c["Done"][puts], first["Done"][puts])
		}
	}
}

func TestOptimisationStats(t *testing.T) {
	opts := RunOpts{Gen: GenOpts{Vertices: 200, Extra: 400, Tasks: 2, Seed: 5}, Threads: 2}
	res, err := RunJStar(opts)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Run.Stats()
	// Every vertex is done exactly once.
	if st.Tables["Done"].Puts.Load() < 200 {
		t.Errorf("Done puts = %d", st.Tables["Done"].Puts.Load())
	}
	// Estimates triggered the rule at least once per vertex.
	if st.Tables["Estimate"].Triggers.Load() < 200 {
		t.Errorf("Estimate triggers = %d", st.Tables["Estimate"].Triggers.Load())
	}
	// -noDelta Edge: edges never travel the Delta tree, so the step count
	// is dominated by Estimate batches, far below the edge count.
	if st.Steps > int64(600+10) {
		t.Errorf("steps = %d; edges must bypass the Delta tree", st.Steps)
	}
}

func TestVerboseOutput(t *testing.T) {
	res, err := RunJStar(RunOpts{
		Gen: GenOpts{Vertices: 5, Extra: 0, Tasks: 1, Seed: 1}, Strategy: exec.Sequential, Verbose: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Run.Output()) != 5 {
		t.Errorf("println lines = %d, want 5 (one per vertex)", len(res.Run.Output()))
	}
}

// BenchmarkRunJStar is the repo benchmark's shortestpath workload (100 k
// vertices, 100 k extra edges, 4 generation tasks, default strategy) as a
// `go test -bench` target, for CPU and allocation profiles of the firing
// path (recipe in .claude/skills/verify/SKILL.md).
func BenchmarkRunJStar(b *testing.B) {
	gen := GenOpts{Vertices: 100000, Extra: 100000, Tasks: 4, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunJStar(RunOpts{Gen: gen}); err != nil {
			b.Fatal(err)
		}
	}
}
