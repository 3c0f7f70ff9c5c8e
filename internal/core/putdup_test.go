package core

import (
	"github.com/jstar-lang/jstar/internal/exec"
	"testing"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// Regression tests for two hot-path fixes:
//   - Run.put must count a discarded duplicate exactly once under -noDelta
//     (the Gamma insert is the only dedup point there), and must not count
//     duplicates at all under -noDelta + -noGamma, where set semantics are
//     deliberately waived and every put fires.
//   - runActions must run only when the batch actually contains action-table
//     tuples, and must sort only those tuples, not the whole batch.

func TestNoDeltaDuplicateCountedOnceAndNotRefired(t *testing.T) {
	p := NewProgram()
	a := p.Table("A", []tuple.Column{{Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("A")})
	var fired int64
	p.Rule("count", a, func(c *Ctx, tt *tuple.Tuple) { fired++ })
	p.Put(tuple.New(a, tuple.Int(7)))
	p.Put(tuple.New(a, tuple.Int(7))) // duplicate
	run, err := p.Execute(Options{Strategy: exec.Sequential, NoDelta: []string{"A"}})
	if err != nil {
		t.Fatal(err)
	}
	st := run.Stats().Tables["A"]
	if st.Puts.Load() != 2 {
		t.Errorf("puts = %d, want 2", st.Puts.Load())
	}
	if st.Duplicates.Load() != 1 {
		t.Errorf("duplicates = %d, want exactly 1 (no double count)", st.Duplicates.Load())
	}
	if fired != 1 {
		t.Errorf("rule fired %d times, want 1 (duplicate must not re-fire)", fired)
	}
}

func TestNoDeltaNoGammaFiresEveryPut(t *testing.T) {
	// With both the Delta set and Gamma storage bypassed there is no dedup
	// point left: every put fires, and none is a "duplicate".
	p := NewProgram()
	a := p.Table("A", []tuple.Column{{Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("A")})
	var fired int64
	p.Rule("count", a, func(c *Ctx, tt *tuple.Tuple) { fired++ })
	p.Put(tuple.New(a, tuple.Int(7)))
	p.Put(tuple.New(a, tuple.Int(7)))
	run, err := p.Execute(Options{Strategy: exec.Sequential,
		NoDelta: []string{"A"}, NoGamma: []string{"A"}})
	if err != nil {
		t.Fatal(err)
	}
	st := run.Stats().Tables["A"]
	if st.Duplicates.Load() != 0 {
		t.Errorf("duplicates = %d, want 0 (nothing can dedup)", st.Duplicates.Load())
	}
	if fired != 2 {
		t.Errorf("rule fired %d times, want 2", fired)
	}
	if run.Gamma().Table(a).Len() != 0 {
		t.Error("-noGamma table must stay empty")
	}
}

func TestActionsRunSortedAndOnlyForActionTables(t *testing.T) {
	// Act and Other share one orderby literal, so their tuples land in one
	// causal equivalence class. The action must see only Act tuples, in
	// field-sorted order regardless of put order.
	p := NewProgram()
	act := p.Table("Act", []tuple.Column{{Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Same")})
	p.Table("Other", []tuple.Column{{Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Same")})
	other := p.Schema("Other")
	var seen []int64
	p.Action(act, func(run *Run, tt *tuple.Tuple) { seen = append(seen, tt.Int("v")) })
	p.Put(tuple.New(act, tuple.Int(3)))
	p.Put(tuple.New(other, tuple.Int(9)))
	p.Put(tuple.New(act, tuple.Int(1)))
	p.Put(tuple.New(other, tuple.Int(8)))
	p.Put(tuple.New(act, tuple.Int(2)))
	run, err := p.Execute(Options{Strategy: exec.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if run.Stats().Steps != 1 {
		t.Fatalf("steps = %d, want 1 (one shared equivalence class)", run.Stats().Steps)
	}
	if len(seen) != 3 || seen[0] != 1 || seen[1] != 2 || seen[2] != 3 {
		t.Errorf("action saw %v, want [1 2 3]", seen)
	}
}
