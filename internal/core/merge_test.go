package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"github.com/jstar-lang/jstar/internal/delta"
	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// mergeSchemas builds a few schemas with assorted column kinds and orderby
// shapes, as one program so they get distinct dense IDs.
func mergeSchemas(t testing.TB) []*tuple.Schema {
	p := NewProgram()
	a := p.Table("MA",
		[]tuple.Column{{Name: "t", Kind: tuple.KindInt}, {Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("M"), tuple.Seq("t")})
	b := p.Table("MB",
		[]tuple.Column{{Name: "x", Kind: tuple.KindFloat}, {Name: "s", Kind: tuple.KindString}},
		[]tuple.OrderEntry{tuple.Lit("M"), tuple.Seq("x")})
	c := p.Table("MC",
		[]tuple.Column{{Name: "v", Kind: tuple.KindInt}, {Name: "k", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("M"), tuple.Seq("k")}) // path col != field 0
	return []*tuple.Schema{a, b, c}
}

func randomTuple(rng *rand.Rand, schemas []*tuple.Schema) *tuple.Tuple {
	s := schemas[rng.Intn(len(schemas))]
	vals := make([]tuple.Value, s.Arity())
	for i, col := range s.Columns {
		switch col.Kind {
		case tuple.KindInt:
			vals[i] = tuple.Int(int64(rng.Intn(20) - 10))
		case tuple.KindFloat:
			vals[i] = tuple.Float(float64(rng.Intn(9)) / 2)
		case tuple.KindString:
			vals[i] = tuple.String_(string(rune('a' + rng.Intn(5))))
		default:
			vals[i] = tuple.Bool(rng.Intn(2) == 0)
		}
	}
	return tuple.New(s, vals...)
}

// TestMergeRunsProperty: for random tuples scattered across k sorted runs
// (with plenty of intra- and cross-run duplicates), the loser-tree merge
// must produce exactly the sorted duplicate-free union the old
// concat+sort+tree-dedup path produced, and report every dropped tuple.
func TestMergeRunsProperty(t *testing.T) {
	schemas := mergeSchemas(t)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(9)
		runs := make([][]*tuple.Tuple, k)
		var all []*tuple.Tuple
		for i := 0; i < rng.Intn(120); i++ {
			tp := randomTuple(rng, schemas)
			r := rng.Intn(k)
			runs[r] = append(runs[r], tp)
			all = append(all, tp)
		}
		for _, run := range runs {
			slices.SortFunc(run, tuple.ComparePath)
		}
		// Reference: sorted union with set-semantics dedup.
		ref := append([]*tuple.Tuple(nil), all...)
		slices.SortFunc(ref, tuple.ComparePath)
		var want []*tuple.Tuple
		for _, tp := range ref {
			if n := len(want); n > 0 && want[n-1].Equal(tp) {
				continue
			}
			want = append(want, tp)
		}
		dups := 0
		got := delta.MergeRuns(runs, nil, func(*tuple.Tuple) { dups++ })
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d tuples, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("trial %d: merged[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
		if !slices.IsSortedFunc(got, tuple.ComparePath) {
			t.Fatalf("trial %d: merge output not ComparePath-sorted", trial)
		}
		if dups != len(all)-len(want) {
			t.Fatalf("trial %d: %d duplicates reported, want %d", trial, dups, len(all)-len(want))
		}
	}
}

// TestDedupSortedInPlace mirrors the single-run fast path of the flush.
func TestDedupSortedInPlace(t *testing.T) {
	schemas := mergeSchemas(t)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		var run []*tuple.Tuple
		for i := 0; i < rng.Intn(60); i++ {
			run = append(run, randomTuple(rng, schemas))
		}
		slices.SortFunc(run, tuple.ComparePath)
		var want []*tuple.Tuple
		for _, tp := range run {
			if n := len(want); n > 0 && want[n-1].Equal(tp) {
				continue
			}
			want = append(want, tp)
		}
		total := len(run)
		dups := 0
		got := delta.DedupSorted(run, func(*tuple.Tuple) { dups++ })
		if len(got) != len(want) || dups != total-len(want) {
			t.Fatalf("trial %d: kept %d (want %d), dups %d (want %d)",
				trial, len(got), len(want), dups, total-len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("trial %d: kept[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestFiringOrderByteIdentical pins the step batch order: the key-based
// slices.SortFunc in beginStep must order every batch exactly as the old
// reflection-closure sort.Slice (schema ID, then CompareFields) did, so
// sequential firing order — and with it every causally ordered side effect
// — is byte-identical across the optimisation. The default strategy is
// held to the same order whenever it keeps a step inline: its doubling
// chunks on the coordinator concatenate to Sequential's one call. The clock
// is frozen for that arm, so the gate cannot open whatever the host does.
// The last arm is the default on one processor: it cannot fan out, so it
// must be Sequential in everything but name — no pool, one put slot.
// Every arm, pooled or not, keeps its tables on tree stores.
func TestFiringOrderByteIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	p := NewProgram()
	cols := []tuple.Column{
		{Name: "x", Kind: tuple.KindInt},
		{Name: "f", Kind: tuple.KindFloat},
		{Name: "s", Kind: tuple.KindString},
	}
	// Two tables sharing one orderby literal: their tuples form a single
	// causal equivalence class, so one step batch mixes both schemas.
	ta := p.Table("FA", cols, []tuple.OrderEntry{tuple.Lit("Same")})
	tb := p.Table("FB", cols, []tuple.OrderEntry{tuple.Lit("Same")})
	var fired []string
	for _, s := range []*tuple.Schema{ta, tb} {
		p.Rule("obs"+s.Name, s, func(c *Ctx, tp *tuple.Tuple) {
			fired = append(fired, tp.String())
		})
	}
	rng := rand.New(rand.NewSource(3))
	var initial []*tuple.Tuple
	schemas := []*tuple.Schema{ta, tb}
	for i := 0; i < 300; i++ {
		s := schemas[rng.Intn(2)]
		tp := tuple.New(s,
			tuple.Int(int64(rng.Intn(10)-5)),
			tuple.Float(float64(rng.Intn(7))/2),
			tuple.String_(string(rune('a'+rng.Intn(4)))+string(rune('a'+rng.Intn(26)))),
		)
		initial = append(initial, tp)
		p.Put(tp)
	}
	// Expected order: the pre-change comparator, verbatim (sort.Slice was
	// not stable, but equal-comparing tuples here are identical rows, which
	// the one dedup point collapses — so the order is fully determined).
	expect := append([]*tuple.Tuple(nil), initial...)
	sort.Slice(expect, func(i, j int) bool {
		a, b := expect[i], expect[j]
		if a.Schema() != b.Schema() {
			return a.Schema().ID() < b.Schema().ID()
		}
		return a.CompareFields(b) < 0
	})
	var want []string
	for _, tp := range expect {
		if n := len(want); n > 0 && want[n-1] == tp.String() {
			continue // set semantics: duplicate rows fire once
		}
		want = append(want, tp.String())
	}
	for _, tc := range []struct {
		procs  int
		opts   Options
		pooled bool
	}{
		{2, Options{Strategy: exec.Sequential, Quiet: true}, false},
		{2, Options{Threads: 4, Quiet: true}, true},
		{1, Options{Quiet: true}, false},
	} {
		runtime.GOMAXPROCS(tc.procs)
		fired = nil
		run, err := p.NewRun(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		run.now = func() int64 { return 0 }
		if err := run.Execute(); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s at GOMAXPROCS %d", run.StrategyName(), tc.procs)
		if (run.pool != nil) != tc.pooled {
			t.Fatalf("%s: pool = %v, want pooled = %v", name, run.pool, tc.pooled)
		}
		if !tc.pooled {
			if run.ownPool != nil || len(run.slots) != 1 {
				t.Errorf("%s: a run that cannot fan out owns a pool (%v) or %d put slots",
					name, run.ownPool != nil, len(run.slots))
			}
		}
		for table, kind := range run.Stats().StoreKinds {
			if kind != "tree" {
				t.Errorf("%s: table %s is on a %s store, want tree", name, table, kind)
			}
		}
		if st := run.Stats(); st.Steps != 1 || st.FannedSteps != 0 {
			t.Fatalf("%s: steps = %d (%d fanned), want 1 inline step (single shared class)", name, st.Steps, st.FannedSteps)
		}
		if len(fired) != len(want) {
			t.Fatalf("%s: fired %d tuples, want %d", name, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("%s: firing order diverges at %d: got %s, want %s", name, i, fired[i], want[i])
			}
		}
	}
}

// TestFiringOrderParSubtreeFallback pins the step order where BeginStep
// cannot take it on trust: a `par` level makes one class out of a whole
// subtree, which drains leaf by leaf in par-key order — sorted inside each
// leaf, not across them, whenever the par column is not the leading field.
// The is-sorted check must notice and fall back to the sort, so the batch
// still fires in the same (schema ID, fields) order as ever, one step per
// `seq` key.
func TestFiringOrderParSubtreeFallback(t *testing.T) {
	p := NewProgram()
	cols := []tuple.Column{
		{Name: "x", Kind: tuple.KindInt},
		{Name: "step", Kind: tuple.KindInt},
		{Name: "part", Kind: tuple.KindInt},
	}
	ob := []tuple.OrderEntry{tuple.Seq("step"), tuple.Par("part")}
	schemas := []*tuple.Schema{p.Table("PA", cols, ob), p.Table("PB", cols, ob)}
	var fired []string
	for _, s := range schemas {
		p.Rule("obs"+s.Name, s, func(c *Ctx, tp *tuple.Tuple) {
			fired = append(fired, tp.String())
		})
	}
	rng := rand.New(rand.NewSource(18))
	var initial []*tuple.Tuple
	for i := 0; i < 400; i++ {
		tp := tuple.New(schemas[rng.Intn(2)],
			tuple.Int(int64(rng.Intn(9)-4)), tuple.Int(int64(rng.Intn(3))), tuple.Int(int64(rng.Intn(6))))
		initial = append(initial, tp)
		p.Put(tp)
	}
	expect := append([]*tuple.Tuple(nil), initial...)
	sort.SliceStable(expect, func(i, j int) bool {
		a, b := expect[i], expect[j]
		if sa, sb := a.Int("step"), b.Int("step"); sa != sb {
			return sa < sb // one class, hence one step, per seq key
		}
		if a.Schema() != b.Schema() {
			return a.Schema().ID() < b.Schema().ID()
		}
		return a.CompareFields(b) < 0
	})
	var want []string
	for _, tp := range expect {
		if n := len(want); n > 0 && want[n-1] == tp.String() {
			continue // set semantics: duplicate rows fire once
		}
		want = append(want, tp.String())
	}
	run, err := p.Execute(Options{Strategy: exec.Sequential, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	if run.Stats().Steps != 3 {
		t.Fatalf("steps = %d, want 3 (one par subtree per step value)", run.Stats().Steps)
	}
	if !slices.Equal(fired, want) {
		for i := range want {
			if i >= len(fired) || fired[i] != want[i] {
				t.Fatalf("firing order diverges at %d of %d/%d: got %v, want %s", i, len(fired), len(want), fired[i:min(i+1, len(fired))], want[i])
			}
		}
		t.Fatalf("fired %d tuples, want %d", len(fired), len(want))
	}
	dups := run.Stats().Tables["PA"].Duplicates.Load() + run.Stats().Tables["PB"].Duplicates.Load()
	if int(dups) != len(initial)-len(want) {
		t.Fatalf("duplicates = %d, want %d", dups, len(initial)-len(want))
	}
}

// TestFlushParityAcrossStrategiesAndStores is the merge/dedup end-to-end
// property: a fan-out whose rule firings spread across worker slots and
// put heavily overlapping tuples (cross-slot duplicates), run under every
// strategy and a spread of Gamma store backends. The final relation
// contents and the duplicate counters must match the sequential reference
// exactly — the sealed-run merge flush must be indistinguishable from the
// old concat+sort+PutBatch boundary.
func TestFlushParityAcrossStrategiesAndStores(t *testing.T) {
	const (
		srcN = 12
		per  = 40
		mod  = 97
	)
	build := func() *Program {
		p := NewProgram()
		src := p.Table("Src", []tuple.Column{{Name: "j", Kind: tuple.KindInt}},
			[]tuple.OrderEntry{tuple.Lit("Src")})
		work := p.Table("Work", []tuple.Column{{Name: "v", Kind: tuple.KindInt}},
			[]tuple.OrderEntry{tuple.Lit("Work")})
		out := p.Table("Out", []tuple.Column{{Name: "v", Kind: tuple.KindInt}},
			[]tuple.OrderEntry{tuple.Lit("Out")})
		p.Order("Src", "Work", "Out")
		p.Rule("fan", src, func(c *Ctx, tp *tuple.Tuple) {
			j := tp.Int("j")
			for i := int64(0); i < per; i++ {
				c.PutNew(work, tuple.Int((j*31+i*7)%mod))
			}
		})
		p.Rule("emit", work, func(c *Ctx, tp *tuple.Tuple) {
			c.PutNew(out, tuple.Int(2*tp.Int("v")))
		})
		for j := int64(0); j < srcN; j++ {
			p.Put(tuple.New(src, tuple.Int(j)))
		}
		return p
	}
	snapshot := func(r *Run, table string) []string {
		s := r.Program().Schema(table)
		var lines []string
		r.Gamma().Table(s).Scan(func(tp *tuple.Tuple) bool {
			lines = append(lines, tp.String())
			return true
		})
		sort.Strings(lines)
		return lines
	}
	type counts struct{ puts, dups int64 }
	var refOut []string
	var refCounts map[string]counts
	plans := []string{"", "tree", "hash:1", "inthash:1", "columnar"}
	strategies := []exec.Strategy{exec.Sequential, exec.ForkJoin, exec.Auto}
	for _, strat := range strategies {
		for _, plan := range plans {
			name := fmt.Sprintf("%v/%s", strat, plan)
			opts := Options{Strategy: strat, Threads: 4, Quiet: true}
			if plan != "" {
				opts.StorePlan = map[string]string{"Work": plan, "Out": plan}
			}
			run, err := build().Execute(opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			gotOut := snapshot(run, "Out")
			gotCounts := map[string]counts{}
			for _, tb := range []string{"Work", "Out"} {
				st := run.Stats().Tables[tb]
				gotCounts[tb] = counts{st.Puts.Load(), st.Duplicates.Load()}
			}
			if refOut == nil {
				refOut, refCounts = gotOut, gotCounts
				// Sanity: the workload must actually produce duplicates.
				if gotCounts["Work"].dups == 0 {
					t.Fatal("workload produced no Work duplicates; test is vacuous")
				}
				continue
			}
			if !slices.Equal(gotOut, refOut) {
				t.Errorf("%s: Out contents differ from sequential reference (%d vs %d tuples)",
					name, len(gotOut), len(refOut))
			}
			for _, tb := range []string{"Work", "Out"} {
				if gotCounts[tb] != refCounts[tb] {
					t.Errorf("%s: table %s counters %+v, reference %+v",
						name, tb, gotCounts[tb], refCounts[tb])
				}
			}
		}
	}
}
