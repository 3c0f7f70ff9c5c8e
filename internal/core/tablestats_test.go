package core

import (
	"fmt"
	"testing"

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
		StorePlan: gamma.StorePlan{"A": "inthash:1"},
		Quiet:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := run.Stats().StoreKinds["A"]; got != "inthash:1" {
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
	for _, spec := range []string{"tree", "hash:1", "inthash:1", "columnar"} {
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
