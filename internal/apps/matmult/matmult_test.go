package matmult

import (
	"github.com/jstar-lang/jstar/internal/exec"
	"testing"
)

func eq(t *testing.T, got, want []int64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %d, want %d", label, i, got[i], want[i])
		}
	}
}

func TestNaiveKnownProduct(t *testing.T) {
	// [1 2; 3 4] x [5 6; 7 8] = [19 22; 43 50]
	a := []int64{1, 2, 3, 4}
	b := []int64{5, 6, 7, 8}
	eq(t, Naive(a, b, 2), []int64{19, 22, 43, 50}, "naive 2x2")
}

func TestTransposedMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 2, 7, 32} {
		a, b := Inputs(n, 9)
		eq(t, Transposed(a, b, n), Naive(a, b, n), "transposed")
	}
}

func TestJStarMatchesBaseline(t *testing.T) {
	for _, n := range []int{1, 4, 16, 40} {
		a, b := Inputs(n, 7)
		want := Naive(a, b, n)
		for _, opts := range []RunOpts{
			{N: n, Strategy: exec.Sequential, Seed: 7},
			{N: n, Threads: 4, Seed: 7},
		} {
			res, err := RunJStar(opts)
			if err != nil {
				t.Fatal(err)
			}
			eq(t, res.C, want, "jstar")
		}
	}
}

func TestBoxedMatchesPrimitive(t *testing.T) {
	res, err := RunJStar(RunOpts{N: 12, Threads: 2, Boxed: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunJStar(RunOpts{N: 12, Threads: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	eq(t, res.C, fast.C, "boxed vs primitive")
}

func TestRowTasksFormOneBatch(t *testing.T) {
	res, err := RunJStar(RunOpts{N: 24, Threads: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Run.Stats()
	// Only the request and the 24 RowReq tuples travel the Delta tree, and
	// all RowReqs execute as one parallel batch.
	if st.MaxBatch != 24 {
		t.Errorf("MaxBatch = %d, want 24 (one task per output row)", st.MaxBatch)
	}
	if st.Tables["RowReq"].Triggers.Load() != 24 {
		t.Errorf("RowReq triggers = %d", st.Tables["RowReq"].Triggers.Load())
	}
	// Matrix tuples bypass Delta entirely (-noDelta): steps stay tiny.
	if st.Steps > 3 {
		t.Errorf("steps = %d; expected only Req + RowReq batches", st.Steps)
	}
}

func TestInputsDeterministic(t *testing.T) {
	a1, b1 := Inputs(8, 5)
	a2, b2 := Inputs(8, 5)
	eq(t, a1, a2, "inputs a")
	eq(t, b1, b2, "inputs b")
}
