package median

import (
	"github.com/jstar-lang/jstar/internal/exec"
	"sort"
	"testing"
	"testing/quick"
)

func TestSortBaselineOddEven(t *testing.T) {
	if got := SortBaseline([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3,1,2 = %v", got)
	}
	// Even length: lower median by definition k=(n-1)/2.
	if got := SortBaseline([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("lower median of 1..4 = %v", got)
	}
	if got := SortBaseline([]float64{7}); got != 7 {
		t.Errorf("singleton median = %v", got)
	}
}

func TestQuickselectMatchesSortProperty(t *testing.T) {
	f := func(xs []float64, seed uint64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, v := range xs {
			if v != v { // NaN breaks ordering; out of scope
				return true
			}
		}
		return Quickselect(xs, seed) == SortBaseline(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickselectDuplicates(t *testing.T) {
	xs := []float64{5, 5, 5, 5, 5}
	if Quickselect(xs, 1) != 5 {
		t.Error("all-equal array")
	}
	xs = []float64{1, 2, 2, 2, 9}
	if Quickselect(xs, 2) != 2 {
		t.Error("duplicate median")
	}
}

func TestValuesDeterministic(t *testing.T) {
	a := Values(100, 3)
	b := Values(100, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("values must be deterministic")
		}
	}
	if !sort.Float64sAreSorted(a) {
		// Expected: random, so *not* sorted (sanity check the generator).
		return
	}
	t.Error("values came out sorted; generator broken")
}

func TestJStarMatchesBaselines(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts RunOpts
	}{
		{"seq-small", RunOpts{N: 101, Regions: 4, Strategy: exec.Sequential, Seed: 5, MaxSteps: 10000}},
		{"par-small", RunOpts{N: 101, Regions: 4, Threads: 4, Seed: 5, MaxSteps: 10000}},
		{"par-regions>n", RunOpts{N: 10, Regions: 24, Threads: 2, Seed: 6, MaxSteps: 10000}},
		{"par-bigger", RunOpts{N: 20000, Regions: 8, Threads: 8, Seed: 7, MaxSteps: 10000}},
		{"even-length", RunOpts{N: 1000, Regions: 6, Threads: 2, Seed: 8, MaxSteps: 10000}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			res, err := RunJStar(cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			want := SortBaseline(Values(cfg.opts.N, cfg.opts.Seed))
			if res.Median != want {
				t.Fatalf("jstar median = %v, want %v", res.Median, want)
			}
		})
	}
}

func TestJStarSingleton(t *testing.T) {
	res, err := RunJStar(RunOpts{N: 1, Regions: 4, Strategy: exec.Sequential, Seed: 1, MaxSteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Median != Values(1, 1)[0] {
		t.Error("singleton median")
	}
}

func TestIterationsAreLogarithmic(t *testing.T) {
	res, err := RunJStar(RunOpts{N: 4096, Regions: 8, Threads: 4, Seed: 9, MaxSteps: 10000})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Run.Stats()
	// Each iteration takes a handful of steps (Ctrl, Scan, Gather, Move
	// batches); expected iterations ~ 2*log2(n) on random pivots.
	if st.Steps > 400 {
		t.Errorf("steps = %d; quickselect should converge in O(log n) iterations", st.Steps)
	}
	// Scans of one iteration run as a single parallel batch.
	if st.MaxBatch < 8 {
		t.Errorf("MaxBatch = %d; region tasks must batch", st.MaxBatch)
	}
}
