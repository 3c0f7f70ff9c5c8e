package shortestpath

import (
	"github.com/jstar-lang/jstar/internal/exec"
	"testing"
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
