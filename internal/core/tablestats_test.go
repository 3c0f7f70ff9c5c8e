package core

import (
	"context"
	"fmt"
	"maps"
	"strings"
	"testing"
	"unsafe"

	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// statsProgram builds a small two-table program with fully predictable
// counters: ten initial A tuples, a rule putting B(k%5) per A (ten puts,
// five duplicates), and a rule per live B querying A with a one-column
// prefix (five indexed queries).
func statsProgram() (*Program, *tuple.Schema, *tuple.Schema) {
	p := NewProgram()
	a := p.Table("A", []tuple.Column{{Name: "k", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("A")})
	b := p.Table("B", []tuple.Column{{Name: "k", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("B")})
	p.Order("A", "B")
	p.Rule("aToB", a, func(c *Ctx, t *tuple.Tuple) {
		c.PutNew(b, tuple.Int(t.Int("k")%5))
	})
	p.Rule("bQueriesA", b, func(c *Ctx, t *tuple.Tuple) {
		c.ForEach(a, gamma.Query{Prefix: []tuple.Value{t.Get("k")}},
			func(*tuple.Tuple) bool { return true })
	})
	for k := int64(0); k < 10; k++ {
		p.Put(tuple.New(a, tuple.Int(k)))
	}
	return p, a, b
}

// TestTableStatsExactAcrossStrategies asserts the per-table counters are
// exact — not approximately consistent — under every execution strategy.
// All ten A tuples share one causal class, so their firings (and the B
// dedup) land identically regardless of how chunks are scheduled; the
// CI race step runs this under -race, making the counters' atomicity a
// tested property rather than a convention.
func TestTableStatsExactAcrossStrategies(t *testing.T) {
	for _, strat := range []exec.Strategy{exec.Sequential, exec.ForkJoin, exec.Auto} {
		t.Run(strat.String(), func(t *testing.T) {
			p, _, _ := statsProgram()
			run, err := p.Execute(Options{Strategy: strat, Threads: 4, Quiet: true})
			if err != nil {
				t.Fatal(err)
			}
			st := run.Stats()
			type want struct {
				puts, dups, triggers, queries, indexed, plen, minp int64
			}
			wants := map[string]want{
				"A": {puts: 10, dups: 0, triggers: 10, queries: 5, indexed: 5, plen: 5, minp: 1},
				"B": {puts: 10, dups: 5, triggers: 5, queries: 0, indexed: 0, plen: 0, minp: 0},
			}
			for name, w := range wants {
				ts := st.Tables[name]
				got := want{
					puts:     ts.Puts.Load(),
					dups:     ts.Duplicates.Load(),
					triggers: ts.Triggers.Load(),
					queries:  ts.Queries.Load(),
					indexed:  ts.IndexedQueries.Load(),
					plen:     ts.PrefixLenSum.Load(),
					minp:     ts.MinPrefixLen.Load(),
				}
				if got != w {
					t.Errorf("%s: counters %+v, want %+v", name, got, w)
				}
			}
		})
	}
}

// TestPutSlotIsWholeCacheLines: a put slot and its ledger — one table's
// counts, one rule's counts, its dataflow cells — are whole cache lines,
// so no two participants' writes share a line.
func TestPutSlotIsWholeCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(putSlot{}); n%64 != 0 {
		t.Errorf("putSlot is %d bytes, not a multiple of 64", n)
	}
	if n := unsafe.Sizeof(TableStats{}); n != 64 {
		t.Errorf("TableStats is %d bytes, want one 64-byte line", n)
	}
	if n := unsafe.Sizeof(ruleCounts{}); n != 64 {
		t.Errorf("ruleCounts is %d bytes, want one 64-byte line", n)
	}
	p := NewProgram()
	a := p.Table("A", []tuple.Column{{Name: "k", Kind: tuple.KindInt}}, nil)
	p.Rule("r", a, func(*Ctx, *tuple.Tuple) {})
	r, err := p.NewRun(Options{Strategy: exec.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.slots[0].puts); n%8 != 0 {
		t.Errorf("a slot's %d dataflow cells are not whole 64-byte lines", n)
	}
}

// TestSessionStatsExactAtQuiesce: the firings count in their put slots and
// the step boundary folds the slots in, so a session's counters read right
// after Quiesce are the totals — after the seed, and again after more
// external puts — while Session.Query counts on the table at once.
func TestSessionStatsExactAtQuiesce(t *testing.T) {
	type counters struct{ puts, dups, triggers, queries, indexed, plen, minp int64 }
	read := func(st *RunStats, name string) counters {
		ts := st.Tables[name]
		return counters{ts.Puts.Load(), ts.Duplicates.Load(), ts.Triggers.Load(),
			ts.Queries.Load(), ts.IndexedQueries.Load(), ts.PrefixLenSum.Load(), ts.MinPrefixLen.Load()}
	}
	p, a, _ := statsProgram()
	s, err := p.Start(context.Background(), Options{Strategy: exec.ForkJoin, Threads: 2, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check := func(when string, wantA, wantB counters) {
		t.Helper()
		if err := s.Quiesce(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := read(s.Stats(), "A"); got != wantA {
			t.Errorf("%s: A counters %+v, want %+v", when, got, wantA)
		}
		if got := read(s.Stats(), "B"); got != wantB {
			t.Errorf("%s: B counters %+v, want %+v", when, got, wantB)
		}
	}
	check("seeded", counters{10, 0, 10, 5, 5, 5, 1}, counters{10, 5, 5, 0, 0, 0, 0})
	// Ten more A, each putting a B that is already stored.
	for k := int64(10); k < 20; k++ {
		if err := s.Put(tuple.New(a, tuple.Int(k))); err != nil {
			t.Fatal(err)
		}
	}
	check("ten more A", counters{20, 0, 20, 5, 5, 5, 1}, counters{20, 15, 5, 0, 0, 0, 0})
	if err := s.Query(a, gamma.Query{Prefix: []tuple.Value{tuple.Int(3)}},
		func(*tuple.Tuple) bool { return true }); err != nil {
		t.Fatal(err)
	}
	check("one served query", counters{20, 0, 20, 6, 6, 6, 1}, counters{20, 15, 5, 0, 0, 0, 0})
}

// TestSessionReadsRefuseUnreadableTables: a served read of a table the
// program never declared, or of one -noGamma keeps out of Gamma, has no
// state to read. Query and Snapshot say so with an error naming the table,
// call the visitor for nothing, and build no store for an undeclared one.
func TestSessionReadsRefuseUnreadableTables(t *testing.T) {
	p, _, b := statsProgram()
	s, err := p.Start(context.Background(), Options{Strategy: exec.Sequential, Quiet: true, NoGamma: []string{"B"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Gamma builds no store for a schema it was not built with, and a
	// store lookup of one panics: the reads must refuse it before looking.
	ghost := tuple.MustSchema("Ghost", []tuple.Column{{Name: "k", Kind: tuple.KindInt}}, nil)
	for _, tc := range []struct {
		sch  *tuple.Schema
		want string
	}{{ghost, "unknown table"}, {b, "-noGamma"}} {
		visited := 0
		err := s.Query(tc.sch, gamma.Query{}, func(*tuple.Tuple) bool { visited++; return true })
		if err == nil || !strings.Contains(err.Error(), "query "+tc.sch.Name) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Query(%s) error %v, want one naming the table and %q", tc.sch.Name, err, tc.want)
		}
		if visited != 0 {
			t.Errorf("Query(%s) visited %d tuples", tc.sch.Name, visited)
		}
		rows, err := s.Snapshot(tc.sch)
		if err == nil || !strings.Contains(err.Error(), "snapshot "+tc.sch.Name) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Snapshot(%s) error %v, want one naming the table and %q", tc.sch.Name, err, tc.want)
		}
		if rows != nil {
			t.Errorf("Snapshot(%s) returned %d rows", tc.sch.Name, len(rows))
		}
	}
	if st := s.Stats().Tables["B"]; st.Queries.Load() != 0 {
		t.Errorf("refused reads counted %d queries of B", st.Queries.Load())
	}
}

// TestTableStatsBatchedQueryAccounting: eight per-tuple firings that
// arrive as one multi-tuple chunk must count one query (and one indexed
// query) each, exactly as eight separately dispatched firings would.
func TestTableStatsBatchedQueryAccounting(t *testing.T) {
	p := NewProgram()
	a := p.Table("A", []tuple.Column{{Name: "k", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("A")})
	b := p.Table("B", []tuple.Column{{Name: "k", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("B")})
	p.Order("A", "B")
	p.Rule("probe", b, func(c *Ctx, t *tuple.Tuple) {
		c.ForEach(a, gamma.Query{Prefix: []tuple.Value{t.Get("k")}},
			func(*tuple.Tuple) bool { return true })
	})
	for k := int64(0); k < 8; k++ {
		p.Put(tuple.New(a, tuple.Int(k)))
		p.Put(tuple.New(b, tuple.Int(k)))
	}
	run, err := p.Execute(Options{Strategy: exec.Sequential, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	st := run.Stats()
	if st.MaxBatch != 8 || st.FireBatches.Load() != st.Steps {
		t.Fatalf("max batch %d, %d chunks over %d steps: want the 8 B tuples in one chunk", st.MaxBatch, st.FireBatches.Load(), st.Steps)
	}
	ts := st.Tables["A"]
	if q, iq, pl, mp := ts.Queries.Load(), ts.IndexedQueries.Load(), ts.PrefixLenSum.Load(), ts.MinPrefixLen.Load(); q != 8 || iq != 8 || pl != 8 || mp != 1 {
		t.Errorf("chunked probes counted queries=%d indexed=%d plen=%d minp=%d, want 8/8/8/1", q, iq, pl, mp)
	}
}

// TestRunStatsStoreKinds: the chosen backend of every table is recorded in
// replayable spec form, honouring the selection layering.
func TestRunStatsStoreKinds(t *testing.T) {
	p, _, _ := statsProgram()
	p.GammaHint("A", gamma.NewHashStore(1))
	run, err := p.Execute(Options{
		Strategy:  exec.Sequential,
		StorePlan: gamma.StorePlan{"B": "columnar"},
		Quiet:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := run.Stats().StoreKinds
	if kinds["A"] != "hash:1" {
		t.Errorf(`kinds["A"] = %q, want "hash:1" (GammaHint)`, kinds["A"])
	}
	if kinds["B"] != "columnar" {
		t.Errorf(`kinds["B"] = %q, want "columnar" (StorePlan)`, kinds["B"])
	}
}

// TestStorePlanOverridesGammaHint: an explicit plan entry must beat the
// programmatic factory hint for the same table.
func TestStorePlanOverridesGammaHint(t *testing.T) {
	p, _, _ := statsProgram()
	p.GammaHint("A", gamma.NewHashStore(1))
	run, err := p.Execute(Options{
		Strategy:  exec.Sequential,
		StorePlan: gamma.StorePlan{"A": "columnar:1"},
		Quiet:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := run.Stats().StoreKinds["A"]; got != "columnar" {
		t.Errorf("StorePlan did not override GammaHint: kind %q", got)
	}
}

// TestStorePlanEquivalence: the same program must compute the same result
// set on every plannable backend — stores are an optimisation, never a
// semantic choice.
func TestStorePlanEquivalence(t *testing.T) {
	baseline := map[string]bool{}
	collect := func(plan gamma.StorePlan) map[string]bool {
		p, _, b := statsProgram()
		run, err := p.Execute(Options{Strategy: exec.Sequential, StorePlan: plan, Quiet: true})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		run.Gamma().Table(b).Scan(func(tp *tuple.Tuple) bool {
			out[fmt.Sprint(tp.Int("k"))] = true
			return true
		})
		return out
	}
	baseline = collect(nil)
	if len(baseline) != 5 {
		t.Fatalf("baseline B has %d tuples, want 5", len(baseline))
	}
	for _, spec := range []string{"tree", "hash:1", "columnar:1", "columnar"} {
		got := collect(gamma.StorePlan{"A": spec, "B": spec})
		if len(got) != len(baseline) {
			t.Errorf("plan %q: %d B tuples, want %d", spec, len(got), len(baseline))
		}
		for k := range baseline {
			if !got[k] {
				t.Errorf("plan %q: missing B(%s)", spec, k)
			}
		}
	}
}

// TestLedgerCountsInlineFirings: an inline -noDelta firing runs through
// the same group path as a step's, so its firings, its puts and its body
// time land in the put slot's ledger and fold into the run's statistics
// like any other — whether the putting rule runs on the coordinator or
// fans its puts out over pool.For helpers sharing its slot.
func TestLedgerCountsInlineFirings(t *testing.T) {
	const perA = 3 * inlineSample
	for _, opts := range []Options{{Strategy: exec.Sequential}, {Strategy: exec.ForkJoin, Threads: 4}} {
		t.Run(opts.Strategy.String(), func(t *testing.T) {
			p := NewProgram()
			a := p.Table("A", []tuple.Column{{Name: "k", Kind: tuple.KindInt}},
				[]tuple.OrderEntry{tuple.Lit("A")})
			n := p.Table("N", []tuple.Column{{Name: "k", Kind: tuple.KindInt}, {Name: "i", Kind: tuple.KindInt}},
				[]tuple.OrderEntry{tuple.Lit("N")})
			c := p.Table("C", []tuple.Column{{Name: "k", Kind: tuple.KindInt}},
				[]tuple.OrderEntry{tuple.Lit("C")})
			p.Order("A", "N", "C")
			p.Rule("fanOut", a, func(ctx *Ctx, t *tuple.Tuple) {
				put := func(i int) { ctx.PutNew(n, t.Get("k"), tuple.Int(int64(i))) }
				if pool := ctx.Pool(); pool != nil {
					pool.For(perA, 1, put)
					return
				}
				for i := range perA {
					put(i)
				}
			})
			p.Rule("count", n, func(ctx *Ctx, t *tuple.Tuple) {
				ctx.PutNew(c, t.Get("k"))
			})
			p.Put(tuple.New(a, tuple.Int(1)))
			p.Put(tuple.New(a, tuple.Int(2)))
			opts.NoDelta = []string{"N"}
			opts.Quiet = true
			run, err := p.Execute(opts)
			if err != nil {
				t.Fatal(err)
			}
			st := run.Stats()
			wantFlow := map[[2]string]int64{{"put", "A"}: 2, {"fanOut", "N"}: 2 * perA, {"count", "C"}: 2 * perA}
			if flow := st.FlowEdges(); !maps.Equal(flow, wantFlow) {
				t.Errorf("flow %v, want %v", flow, wantFlow)
			}
			wantFired := map[string]int64{"fanOut": 2, "count": 2 * perA}
			if fired := st.RuleFirings(); !maps.Equal(fired, wantFired) {
				t.Errorf("firings %v, want %v", fired, wantFired)
			}
			if st.TotalFired != 2+2*perA || st.Tables["N"].Triggers.Load() != 2*perA || st.Tables["N"].Puts.Load() != 2*perA {
				t.Errorf("TotalFired %d, N triggers %d, N puts %d", st.TotalFired,
					st.Tables["N"].Triggers.Load(), st.Tables["N"].Puts.Load())
			}
			if st.RuleNanos["count"].Load() <= 0 || st.RuleNanos["fanOut"].Load() <= 0 {
				t.Errorf("rule time: count %d ns, fanOut %d ns", st.RuleNanos["count"].Load(), st.RuleNanos["fanOut"].Load())
			}
			if st.FireBatches.Load() == 0 || st.FireBatches.Load() > st.Steps*int64(run.Threads()+1) {
				t.Errorf("%d fired chunks over %d steps: inline firings must not count as chunks", st.FireBatches.Load(), st.Steps)
			}
		})
	}
}
