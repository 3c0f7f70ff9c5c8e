package core

import (
	"github.com/jstar-lang/jstar/internal/exec"
	"strings"
	"testing"

	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// planStats builds a synthetic RunStats for planner unit tests.
func planStats() *RunStats {
	rs := &RunStats{
		Tables:     map[string]*TableStats{},
		StoreKinds: map[string]string{},
		schemas:    map[string]*tuple.Schema{},
		noGamma:    map[string]bool{},
	}
	return rs
}

func (rs *RunStats) addTable(name string, cols []tuple.Column, kind string,
	puts, dups, queries, indexed, plen, minp int64) *RunStats {
	s := tuple.MustSchema(name, cols, nil)
	st := &TableStats{}
	st.Puts.Store(puts)
	st.Duplicates.Store(dups)
	st.Queries.Store(queries)
	st.IndexedQueries.Store(indexed)
	st.PrefixLenSum.Store(plen)
	st.MinPrefixLen.Store(minp)
	rs.Tables[name] = st
	rs.StoreKinds[name] = kind
	rs.schemas[name] = s
	return rs
}

func intCols(n int) []tuple.Column {
	cols := make([]tuple.Column, n)
	for i := range cols {
		cols[i] = tuple.Column{Name: string(rune('a' + i)), Kind: tuple.KindInt}
	}
	return cols
}

func TestPlanFromStatsHeuristics(t *testing.T) {
	rs := planStats().
		// Put-dominated, point-queried at prefix 2, all-int -> inthash:2.
		addTable("Readings", intCols(5), "tree", 10000, 0, 24, 24, 48, 2).
		// Query-dominated point probes -> generic hash at prefix 1.
		addTable("Index", intCols(3), "tree", 1000, 0, 5000, 5000, 5000, 1).
		// Mixed prefix depths (1..3): key at the MINIMUM, or the shallow
		// queries would fall off the keyed path onto full scans.
		addTable("Depths", intCols(3), "tree", 9000, 0, 100, 100, 200, 1).
		// Dedup sink: no queries, mostly duplicates, all-int -> whole-row inthash.
		addTable("Sink", intCols(2), "tree", 9000, 8900, 0, 0, 0, 0).
		// Dedup sink with a non-int column -> columnar (hash-map dedup).
		addTable("StrSink", []tuple.Column{
			{Name: "key", Kind: tuple.KindString},
			{Name: "v", Kind: tuple.KindInt}}, "tree", 9000, 8900, 0, 0, 0, 0).
		// Append-mostly, never queried -> columnar.
		addTable("Log", []tuple.Column{
			{Name: "line", Kind: tuple.KindString}}, "tree", 5000, 0, 0, 0, 0, 0).
		// Point-queried but not all-int -> generic hash.
		addTable("Names", []tuple.Column{
			{Name: "id", Kind: tuple.KindInt},
			{Name: "name", Kind: tuple.KindString}}, "tree", 2000, 0, 100, 100, 100, 1).
		// Mixed query shapes (some scans) -> no opinion.
		addTable("Mixed", intCols(2), "tree", 5000, 0, 100, 50, 50, 1).
		// Below the volume floor -> no opinion.
		addTable("Tiny", intCols(2), "tree", 10, 0, 5, 5, 5, 1).
		// Specialised manual hint: omitted, so the program's GammaHint
		// (which knows the current problem size) re-establishes it on
		// replay instead of a stale frozen spec.
		addTable("Matrix", intCols(4), "dense3d:3,96,96", 20000, 0, 0, 0, 0, 0)
	rs.addTable("Ghost", intCols(1), "tree", 50000, 0, 0, 0, 0, 0)
	rs.noGamma["Ghost"] = true // -noGamma: store never used, never planned

	plan := rs.SuggestStorePlan()
	want := gamma.StorePlan{
		"Readings": "inthash:2",
		"Index":    "hash:1",
		"Depths":   "inthash:1",
		"Sink":     "inthash:2",
		"StrSink":  "columnar",
		"Log":      "columnar",
		"Names":    "hash:1",
	}
	for name, spec := range want {
		if plan[name] != spec {
			t.Errorf("plan[%s] = %q, want %q", name, plan[name], spec)
		}
	}
	for _, name := range []string{"Mixed", "Tiny", "Ghost", "Matrix"} {
		if spec, ok := plan[name]; ok {
			t.Errorf("plan[%s] = %q, want no entry", name, spec)
		}
	}
}

// TestPlanFromStatsBatchedFloor: heavy batching lowers the volume floor.
func TestPlanFromStatsBatchedFloor(t *testing.T) {
	rs := planStats().
		addTable("Mid", intCols(2), "tree", 200, 0, 10, 10, 10, 1)
	if plan := rs.SuggestStorePlan(); len(plan) != 0 {
		t.Fatalf("un-batched run planned %v below the floor", plan)
	}
	rs.TotalLive = 12800
	rs.FireBatches.Store(100) // mean chunk 128 >= planBatchedChunk
	if plan := rs.SuggestStorePlan(); plan["Mid"] != "inthash:1" {
		t.Errorf("batched run: plan[Mid] = %q, want inthash:1", plan["Mid"])
	}
}

func TestValidateRejectsBadStorePlans(t *testing.T) {
	p, _, _ := statsProgram()
	cases := []struct {
		plan gamma.StorePlan
		want []string
	}{
		{gamma.StorePlan{"Nope": "tree"},
			[]string{"store plan for Nope: unknown table", "declared: A, B"}},
		{gamma.StorePlan{"A": "btree"},
			[]string{"store plan for A", `unknown store kind "btree"`,
				"tree|hash|inthash|columnar|arrayhash|dense3d|rolling"}},
		{gamma.StorePlan{"A": "skip"},
			[]string{"store plan for A", `unknown store kind "skip"`,
				"tree|hash|inthash|columnar|arrayhash|dense3d|rolling"}},
		{gamma.StorePlan{"A": "tree@1"},
			[]string{"store plan for A", `unknown store kind "tree@1"`}},
		{gamma.StorePlan{"A": "@2"},
			[]string{"store plan for A", `unknown store kind "@2"`}},
		{gamma.StorePlan{"A": "hash:7"},
			[]string{"store plan for A", "out of range"}},
		{gamma.StorePlan{"A": "dense3d:2,2,2"},
			[]string{"store plan for A", "4-column all-int"}},
	}
	for _, c := range cases {
		err := p.Validate(Options{StorePlan: c.plan})
		if err == nil {
			t.Errorf("Validate(%v): expected error", c.plan)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("Validate(%v) error %q missing %q", c.plan, err, w)
			}
		}
	}
	if err := p.Validate(Options{StorePlan: gamma.StorePlan{"A": "inthash:1", "B": "columnar"}}); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// TestValidateRejectsBadPlanHints: compiler-emitted hints go through the
// same gate as explicit plans.
func TestValidateRejectsBadPlanHints(t *testing.T) {
	p, _, _ := statsProgram()
	p.PlanHint("A", "warp")
	err := p.Validate(Options{})
	if err == nil || !strings.Contains(err.Error(), "store plan hint for A") ||
		!strings.Contains(err.Error(), "unknown store kind") {
		t.Errorf("bad plan hint not rejected: %v", err)
	}
}

// TestSuggestedPlanReplays: the planner's own output must pass validation
// and replay cleanly on the same program — the two-run tuning loop's
// contract, end to end at the engine level.
func TestSuggestedPlanReplays(t *testing.T) {
	build := func() *Program {
		p := NewProgram()
		src := p.Table("Src", intCols(2), []tuple.OrderEntry{tuple.Lit("Src")})
		snk := p.Table("Snk", intCols(1), []tuple.OrderEntry{tuple.Lit("Snk")})
		p.Order("Src", "Snk")
		p.Rule("fold", src, func(c *Ctx, t *tuple.Tuple) {
			c.PutNew(snk, tuple.Int(t.Int("a")%7))
		})
		for i := int64(0); i < 600; i++ {
			p.Put(tuple.New(src, tuple.Int(i), tuple.Int(i*3)))
		}
		return p
	}
	run, err := build().Execute(Options{Strategy: exec.Sequential, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := run.Stats().SuggestStorePlan()
	if len(plan) == 0 {
		t.Fatal("planner had no opinion on a 600-put program")
	}
	run2, err := build().Execute(Options{Strategy: exec.Sequential, StorePlan: plan, Quiet: true})
	if err != nil {
		t.Fatalf("replaying suggested plan %v: %v", plan, err)
	}
	changed := false
	for name, spec := range plan {
		if run2.Stats().StoreKinds[name] != spec {
			t.Errorf("replay did not apply %s=%q (got %q)", name, spec, run2.Stats().StoreKinds[name])
		}
		if run.Stats().StoreKinds[name] != spec {
			changed = true
		}
	}
	if !changed {
		t.Error("suggested plan changed no backend")
	}
}
