package jstar_test

import (
	"sort"
	"strings"
	"testing"

	"github.com/jstar-lang/jstar"
)

// TestPublicAPIQuickstart exercises the doc-comment example end to end.
func TestPublicAPIQuickstart(t *testing.T) {
	p := jstar.NewProgram()
	ship := p.Table("Ship",
		jstar.Cols(jstar.KeyInt("frame"), jstar.IntCol("x"), jstar.IntCol("y"),
			jstar.IntCol("dx"), jstar.IntCol("dy")),
		jstar.OrderBy(jstar.Lit("Int"), jstar.Seq("frame")))
	p.Rule("moveRight", ship, func(c *jstar.Ctx, s *jstar.Tuple) {
		if s.Int("x") < 400 {
			c.PutNew(ship, jstar.Int(s.Int("frame")+1), jstar.Int(s.Int("x")+150),
				s.Get("y"), s.Get("dx"), s.Get("dy"))
		}
	})
	p.Put(jstar.New(ship, jstar.Int(0), jstar.Int(10), jstar.Int(10),
		jstar.Int(150), jstar.Int(0)))
	run, err := p.Execute(jstar.Options{CheckCausality: true})
	if err != nil {
		t.Fatal(err)
	}
	if run.Gamma().Table(ship).Len() != 4 {
		t.Errorf("ship tuples = %d", run.Gamma().Table(ship).Len())
	}
}

func TestPublicAPIQueriesAndHints(t *testing.T) {
	p := jstar.NewProgram()
	reading := p.Table("Reading",
		jstar.Cols(jstar.IntCol("month"), jstar.IntCol("power")),
		jstar.OrderBy(jstar.Lit("Reading")))
	ask := p.Table("Ask", jstar.Cols(jstar.IntCol("q")), jstar.OrderBy(jstar.Lit("Ask")))
	p.Order("Reading", "Ask")
	p.GammaHint("Reading", jstar.HashStore(1))
	var count int
	var highPower int
	p.Rule("query", ask, func(c *jstar.Ctx, tp *jstar.Tuple) {
		count = c.Count(reading, jstar.Eq(jstar.Int(1)))
		highPower = c.Count(reading, jstar.Where(
			func(r *jstar.Tuple) bool { return r.Int("power") > 100 }, jstar.Int(1)))
	})
	p.Put(jstar.New(reading, jstar.Int(1), jstar.Int(50)))
	p.Put(jstar.New(reading, jstar.Int(1), jstar.Int(150)))
	p.Put(jstar.New(reading, jstar.Int(2), jstar.Int(999)))
	p.Put(jstar.New(ask, jstar.Int(0)))
	if _, err := p.Execute(jstar.Options{Strategy: jstar.StrategySequential}); err != nil {
		t.Fatal(err)
	}
	if count != 2 || highPower != 1 {
		t.Errorf("count = %d, highPower = %d", count, highPower)
	}
}

func TestPublicAPIBuilders(t *testing.T) {
	p := jstar.NewProgram()
	s := p.Table("T",
		jstar.Cols(jstar.IntCol("a"), jstar.FloatCol("b"), jstar.StrCol("c"), jstar.BoolCol("d")),
		nil)
	tp := jstar.NewBuilder(s).SetInt("a", 1).SetFloat("b", 2.5).
		SetString("c", "x").SetBool("d", true).Build()
	if tp.Int("a") != 1 || tp.Float("b") != 2.5 || tp.Str("c") != "x" {
		t.Error("builder fields")
	}
	cp := jstar.CopyOf(tp).SetInt("a", 9).Build()
	if cp.Int("a") != 9 || cp.Float("b") != 2.5 {
		t.Error("copy-update")
	}
}

// TestDeterministicOutputAcrossStrategies is the §1.3 property on the
// public API: the output tuple *set* is identical across sequential,
// 2-thread and 8-thread executions (only ordering within batches differs).
func TestDeterministicOutputAcrossStrategies(t *testing.T) {
	build := func() (*jstar.Program, *jstar.Schema, *jstar.Schema) {
		p := jstar.NewProgram()
		work := p.Table("Work", jstar.Cols(jstar.IntCol("step"), jstar.IntCol("item")),
			jstar.OrderBy(jstar.Lit("Int"), jstar.Seq("step")))
		out := p.Table("Out", jstar.Cols(jstar.IntCol("step"), jstar.IntCol("sum")),
			jstar.OrderBy(jstar.Lit("Out")))
		p.Order("Int", "Out")
		p.Rule("spread", work, func(c *jstar.Ctx, w *jstar.Tuple) {
			step, item := w.Int("step"), w.Int("item")
			if step < 6 {
				c.PutNew(work, jstar.Int(step+1), jstar.Int(item*2+1))
				c.PutNew(work, jstar.Int(step+1), jstar.Int(item*2))
			}
			c.PutNew(out, jstar.Int(step), jstar.Int(item))
		})
		p.Put(jstar.New(work, jstar.Int(0), jstar.Int(1)))
		return p, work, out
	}
	results := make([][]string, 0, 3)
	for _, opts := range []jstar.Options{
		{Strategy: jstar.StrategySequential}, {Threads: 2}, {Threads: 8},
	} {
		p, _, out := build()
		run, err := p.Execute(opts)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		run.Gamma().Table(out).Scan(func(tp *jstar.Tuple) bool {
			rows = append(rows, tp.String())
			return true
		})
		sort.Strings(rows)
		results = append(results, rows)
	}
	for i := 1; i < len(results); i++ {
		if strings.Join(results[i], "|") != strings.Join(results[0], "|") {
			t.Fatalf("strategy %d produced a different output set", i)
		}
	}
}
