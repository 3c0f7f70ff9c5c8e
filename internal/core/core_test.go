package core

import (
	"github.com/jstar-lang/jstar/internal/exec"
	"sort"
	"strings"
	"testing"

	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// shipProgram builds the paper's §3 Ship example: move right by 150 while
// x < 400.
func shipProgram() (*Program, *tuple.Schema) {
	p := NewProgram()
	ship := p.Table("Ship",
		[]tuple.Column{
			{Name: "frame", Kind: tuple.KindInt, Key: true},
			{Name: "x", Kind: tuple.KindInt},
			{Name: "y", Kind: tuple.KindInt},
			{Name: "dx", Kind: tuple.KindInt},
			{Name: "dy", Kind: tuple.KindInt},
		},
		[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("frame")})
	p.Rule("moveRight", ship, func(c *Ctx, s *tuple.Tuple) {
		if s.Int("x") < 400 {
			c.PutNew(ship, tuple.Int(s.Int("frame")+1), tuple.Int(s.Int("x")+150),
				tuple.Int(s.Int("y")), tuple.Int(s.Int("dx")), tuple.Int(s.Int("dy")))
		}
	})
	p.Put(tuple.New(ship, tuple.Int(0), tuple.Int(10), tuple.Int(10), tuple.Int(150), tuple.Int(0)))
	return p, ship
}

func TestShipSequential(t *testing.T) {
	p, ship := shipProgram()
	run, err := p.Execute(Options{Strategy: exec.Sequential, CheckCausality: true})
	if err != nil {
		t.Fatal(err)
	}
	// x: 10 -> 160 -> 310 -> 460 (stops: 460 >= 400). Four tuples.
	if got := run.Gamma().Table(ship).Len(); got != 4 {
		t.Errorf("Ship table has %d tuples, want 4", got)
	}
	var xs []int64
	run.Gamma().Table(ship).Scan(func(tp *tuple.Tuple) bool {
		xs = append(xs, tp.Int("x"))
		return true
	})
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	want := []int64{10, 160, 310, 460}
	for i := range want {
		if xs[i] != want[i] {
			t.Fatalf("x positions = %v, want %v", xs, want)
		}
	}
	if run.Stats().Steps != 4 {
		t.Errorf("steps = %d, want 4 (one frame per step)", run.Stats().Steps)
	}
}

func TestShipParallelSameResult(t *testing.T) {
	p, ship := shipProgram()
	run, err := p.Execute(Options{Threads: 4, CheckCausality: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := run.Gamma().Table(ship).Len(); got != 4 {
		t.Errorf("parallel Ship run has %d tuples, want 4", got)
	}
}

func TestUnconditionalRuleHitsStepLimit(t *testing.T) {
	// The §3 rule without the x < 400 guard "creates an infinite loop that
	// keeps moving the Ship infinitely far to the right".
	p := NewProgram()
	ship := p.Table("Ship",
		[]tuple.Column{{Name: "frame", Kind: tuple.KindInt}, {Name: "x", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("frame")})
	p.Rule("forever", ship, func(c *Ctx, s *tuple.Tuple) {
		c.PutNew(ship, tuple.Int(s.Int("frame")+1), tuple.Int(s.Int("x")+150))
	})
	p.Put(tuple.New(ship, tuple.Int(0), tuple.Int(10)))
	_, err := p.Execute(Options{Strategy: exec.Sequential, MaxSteps: 100})
	if err == nil || !strings.Contains(err.Error(), "MaxSteps") {
		t.Fatalf("expected MaxSteps error, got %v", err)
	}
}

func TestCausalityViolationCaught(t *testing.T) {
	p := NewProgram()
	ev := p.Table("Event",
		[]tuple.Column{{Name: "t", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Seq("t")})
	p.Rule("timeTravel", ev, func(c *Ctx, e *tuple.Tuple) {
		if e.Int("t") == 5 {
			c.PutNew(ev, tuple.Int(e.Int("t")-1)) // put into the past!
		}
	})
	p.Put(tuple.New(ev, tuple.Int(5)))
	_, err := p.Execute(Options{Strategy: exec.Sequential, CheckCausality: true})
	if err == nil || !strings.Contains(err.Error(), "causality violation") {
		t.Fatalf("expected causality violation, got %v", err)
	}
}

func TestPutSameTimestampAllowed(t *testing.T) {
	// Positive causality: puts at the same timestamp are legal (<=).
	p := NewProgram()
	a := p.Table("A", []tuple.Column{{Name: "t", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Seq("t"), tuple.Lit("A")})
	b := p.Table("B", []tuple.Column{{Name: "t", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Seq("t"), tuple.Lit("B")})
	p.Order("A", "B")
	p.Rule("echo", a, func(c *Ctx, e *tuple.Tuple) {
		c.PutNew(b, tuple.Int(e.Int("t"))) // same t, later table literal
	})
	p.Put(tuple.New(a, tuple.Int(1)))
	run, err := p.Execute(Options{Strategy: exec.Sequential, CheckCausality: true})
	if err != nil {
		t.Fatal(err)
	}
	if run.Gamma().Table(b).Len() != 1 {
		t.Error("B tuple missing")
	}
}

// pvMiniProgram is a small PvWatts (Fig 4): per-month mean power.
func pvMiniProgram(noDelta bool) (*Program, func(run *Run) map[int64]float64) {
	p := NewProgram()
	pv := p.Table("PvWatts",
		[]tuple.Column{
			{Name: "month", Kind: tuple.KindInt},
			{Name: "day", Kind: tuple.KindInt},
			{Name: "power", Kind: tuple.KindInt},
		},
		[]tuple.OrderEntry{tuple.Lit("PvWatts")})
	sum := p.Table("SumMonth",
		[]tuple.Column{{Name: "month", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("SumMonth")})
	res := p.Table("Result",
		[]tuple.Column{{Name: "month", Kind: tuple.KindInt}, {Name: "mean", Kind: tuple.KindFloat}},
		[]tuple.OrderEntry{tuple.Lit("Result")})
	p.Order("PvWatts", "SumMonth", "Result")
	p.Rule("request", pv, func(c *Ctx, t *tuple.Tuple) {
		c.PutNew(sum, tuple.Int(t.Int("month")))
	})
	p.Rule("reduce", sum, func(c *Ctx, s *tuple.Tuple) {
		var n, total int64
		c.ForEach(pv, gamma.Query{Prefix: []tuple.Value{s.Get("month")}}, func(r *tuple.Tuple) bool {
			n++
			total += r.Int("power")
			return true
		})
		c.PutNew(res, s.Get("month"), tuple.Float(float64(total)/float64(n)))
	})
	for m := int64(1); m <= 3; m++ {
		for d := int64(1); d <= 4; d++ {
			p.Put(tuple.New(pv, tuple.Int(m), tuple.Int(d), tuple.Int(m*10+d)))
		}
	}
	read := func(run *Run) map[int64]float64 {
		out := make(map[int64]float64)
		run.Gamma().Table(res).Scan(func(t *tuple.Tuple) bool {
			out[t.Int("month")] = t.Float("mean")
			return true
		})
		return out
	}
	_ = noDelta
	return p, read
}

func TestPvMiniSequentialAndParallelAgree(t *testing.T) {
	want := map[int64]float64{1: 12.5, 2: 22.5, 3: 32.5}
	for _, opts := range []Options{
		{Strategy: exec.Sequential, CheckCausality: true},
		{Threads: 4, CheckCausality: true},
		{Threads: 8},
	} {
		p, read := pvMiniProgram(false)
		run, err := p.Execute(opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		got := read(run)
		if len(got) != 3 {
			t.Fatalf("opts %+v: results %v", opts, got)
		}
		for m, mean := range want {
			if got[m] != mean {
				t.Errorf("opts %+v: month %d mean = %v, want %v", opts, m, got[m], mean)
			}
		}
	}
}

func TestSumMonthDeduplication(t *testing.T) {
	// 12 PvWatts tuples put only 3 unique SumMonth tuples (set semantics).
	p, _ := pvMiniProgram(false)
	run, err := p.Execute(Options{Strategy: exec.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	st := run.Stats().Tables["SumMonth"]
	if st.Puts.Load() != 12 {
		t.Errorf("SumMonth puts = %d, want 12", st.Puts.Load())
	}
	if st.Duplicates.Load() != 9 {
		t.Errorf("SumMonth duplicates = %d, want 9", st.Duplicates.Load())
	}
	if st.Triggers.Load() != 3 {
		t.Errorf("SumMonth triggers = %d, want 3", st.Triggers.Load())
	}
}

func TestNoDeltaProducesSameResults(t *testing.T) {
	// -noDelta PvWatts: tuples go straight to Gamma and fire inline (§5.1).
	p, read := pvMiniProgram(true)
	run, err := p.Execute(Options{Strategy: exec.Sequential, NoDelta: []string{"PvWatts"}})
	if err != nil {
		t.Fatal(err)
	}
	got := read(run)
	if got[1] != 12.5 || got[2] != 22.5 || got[3] != 32.5 {
		t.Errorf("noDelta results = %v", got)
	}
	// PvWatts tuples never entered the Delta tree, so fewer steps ran.
	if run.Stats().Steps >= 16 {
		t.Errorf("steps = %d; noDelta should cut PvWatts steps", run.Stats().Steps)
	}
}

func TestNoGammaSkipsStorage(t *testing.T) {
	p, _ := pvMiniProgram(false)
	run, err := p.Execute(Options{Strategy: exec.Sequential, NoGamma: []string{"SumMonth"}})
	if err != nil {
		t.Fatal(err)
	}
	if run.Gamma().Table(p.Schema("SumMonth")).Len() != 0 {
		t.Error("-noGamma table must not be stored")
	}
	// Results still computed: SumMonth is trigger-only.
	if run.Gamma().Table(p.Schema("Result")).Len() != 3 {
		t.Error("results missing under -noGamma SumMonth")
	}
}

// TestQueryOfNoGammaTableFails: -noGamma keeps a table out of Gamma, so
// a rule that queries it would silently read an empty table. Every query
// form fails the run instead, with an error naming the table and the hint.
func TestQueryOfNoGammaTableFails(t *testing.T) {
	forms := map[string]func(c *Ctx, acc *tuple.Schema){
		"ForEach": func(c *Ctx, acc *tuple.Schema) {
			c.ForEach(acc, gamma.Query{}, func(*tuple.Tuple) bool { return true })
		},
		"GetUniq": func(c *Ctx, acc *tuple.Schema) { c.GetUniq(acc, gamma.Query{}) },
		"Exists":  func(c *Ctx, acc *tuple.Schema) { c.Exists(acc, gamma.Query{}) },
		"Count":   func(c *Ctx, acc *tuple.Schema) { c.Count(acc, gamma.Query{}) },
		"GetMin":  func(c *Ctx, acc *tuple.Schema) { c.GetMin(acc, gamma.Query{}, "v") },
		"SumInt":  func(c *Ctx, acc *tuple.Schema) { c.SumInt(acc, gamma.Query{}, "v") },
	}
	for name, query := range forms {
		t.Run(name, func(t *testing.T) {
			p, goT, acc := accProgram(2)
			p.Rule("reads", goT, func(c *Ctx, _ *tuple.Tuple) { query(c, acc) })
			p.Put(tuple.New(goT, tuple.Int(0)))
			_, err := p.Execute(Options{Strategy: exec.Sequential, Quiet: true, NoGamma: []string{"Acc"}})
			if err == nil || !strings.Contains(err.Error(), "table Acc") || !strings.Contains(err.Error(), "-noGamma") {
				t.Fatalf("querying a -noGamma table: err = %v, want one naming Acc and -noGamma", err)
			}
		})
	}
}

func TestValidateUnknownTables(t *testing.T) {
	p, _ := pvMiniProgram(false)
	if _, err := p.NewRun(Options{NoDelta: []string{"Nope"}}); err == nil {
		t.Error("unknown -noDelta table must fail validation")
	}
	if _, err := p.NewRun(Options{NoGamma: []string{"Nope"}}); err == nil {
		t.Error("unknown -noGamma table must fail validation")
	}
	p.GammaHint("AlsoNope", gamma.NewHashStore(1))
	if _, err := p.NewRun(Options{}); err == nil {
		t.Error("unknown gamma hint table must fail validation")
	}
}

func TestRulePanicBecomesError(t *testing.T) {
	p := NewProgram()
	a := p.Table("A", []tuple.Column{{Name: "v", Kind: tuple.KindInt}}, nil)
	p.Rule("boom", a, func(c *Ctx, t *tuple.Tuple) { panic("kaboom") })
	p.Put(tuple.New(a, tuple.Int(1)))
	_, err := p.Execute(Options{Strategy: exec.Sequential})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("rule panic not surfaced: %v", err)
	}
}

func TestDuplicateTablePanics(t *testing.T) {
	p := NewProgram()
	p.Table("T", []tuple.Column{{Name: "v", Kind: tuple.KindInt}}, nil)
	defer func() {
		if recover() == nil {
			t.Error("duplicate table must panic")
		}
	}()
	p.Table("T", []tuple.Column{{Name: "v", Kind: tuple.KindInt}}, nil)
}

func TestPutUndeclaredTablePanics(t *testing.T) {
	p := NewProgram()
	a := p.Table("A", []tuple.Column{{Name: "v", Kind: tuple.KindInt}}, nil)
	rogue := tuple.MustSchema("Rogue", []tuple.Column{{Name: "v", Kind: tuple.KindInt}}, nil)
	p.Rule("r", a, func(c *Ctx, t *tuple.Tuple) { c.Put(tuple.New(rogue, tuple.Int(1))) })
	p.Put(tuple.New(a, tuple.Int(1)))
	_, err := p.Execute(Options{Strategy: exec.Sequential})
	if err == nil {
		t.Error("put of undeclared table must fail the run")
	}
}

func TestCtxQueries(t *testing.T) {
	p := NewProgram()
	edge := p.Table("Edge",
		[]tuple.Column{
			{Name: "from", Kind: tuple.KindInt},
			{Name: "to", Kind: tuple.KindInt},
			{Name: "w", Kind: tuple.KindInt},
		},
		[]tuple.OrderEntry{tuple.Lit("Edge")})
	probe := p.Table("Probe", []tuple.Column{{Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Probe")})
	p.Order("Edge", "Probe")
	type result struct {
		count int
		sum   int64
		minW  int64
		exist bool
		nope  bool
	}
	var got result
	p.Rule("q", probe, func(c *Ctx, t *tuple.Tuple) {
		q := gamma.Query{Prefix: []tuple.Value{tuple.Int(1)}}
		got.count = c.Count(edge, q)
		got.sum = c.SumInt(edge, q, "w")
		got.minW = c.GetMin(edge, q, "w").Int("w")
		got.exist = c.Exists(edge, q)
		got.nope = c.Exists(edge, gamma.Query{Prefix: []tuple.Value{tuple.Int(99)}})
	})
	p.Put(tuple.New(edge, tuple.Int(1), tuple.Int(2), tuple.Int(5)))
	p.Put(tuple.New(edge, tuple.Int(1), tuple.Int(3), tuple.Int(2)))
	p.Put(tuple.New(edge, tuple.Int(2), tuple.Int(3), tuple.Int(9)))
	p.Put(tuple.New(probe, tuple.Int(0)))
	if _, err := p.Execute(Options{Strategy: exec.Sequential, CheckCausality: true}); err != nil {
		t.Fatal(err)
	}
	if got.count != 2 || got.sum != 7 || got.minW != 2 || !got.exist || got.nope {
		t.Errorf("query results = %+v", got)
	}
}

func TestPrintlnOutput(t *testing.T) {
	p := NewProgram()
	a := p.Table("A", []tuple.Column{{Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Seq("v")})
	p.Rule("say", a, func(c *Ctx, t *tuple.Tuple) {
		c.Printf("v=%d\n", t.Int("v"))
	})
	for i := int64(3); i > 0; i-- {
		p.Put(tuple.New(a, tuple.Int(i)))
	}
	run, err := p.Execute(Options{Strategy: exec.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	out := run.Output()
	// Sequential run, one tuple per step: causally ordered output.
	if len(out) != 3 || out[0] != "v=1\n" || out[2] != "v=3\n" {
		t.Errorf("output = %q", out)
	}
	// Quiet mode discards.
	p2, _ := pvMiniProgram(false)
	run2, err := p2.Execute(Options{Strategy: exec.Sequential, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(run2.Output()) != 0 {
		t.Error("quiet run must discard output")
	}
}

func TestQueryFutureCaught(t *testing.T) {
	// A rule that queries a table whose tuples live in its future must be
	// caught by the runtime causality checker.
	p := NewProgram()
	early := p.Table("Early", []tuple.Column{{Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Early")})
	late := p.Table("Late", []tuple.Column{{Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Late")})
	p.Order("Early", "Late")
	p.Rule("peek", early, func(c *Ctx, t *tuple.Tuple) {
		c.ForEach(late, gamma.Query{}, func(*tuple.Tuple) bool { return true })
	})
	// Late tuple is noDelta so it is in Gamma before Early fires.
	p.Put(tuple.New(late, tuple.Int(1)))
	p.Put(tuple.New(early, tuple.Int(1)))
	_, err := p.Execute(Options{Strategy: exec.Sequential,
		NoDelta: []string{"Late"}, CheckCausality: true})
	if err == nil || !strings.Contains(err.Error(), "future") {
		t.Fatalf("future read not caught: %v", err)
	}
}

func TestStatsPopulated(t *testing.T) {
	p, _ := pvMiniProgram(false)
	run, err := p.Execute(Options{Strategy: exec.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	st := run.Stats()
	if st.Steps == 0 || st.TotalFired == 0 || st.Elapsed <= 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	if st.Tables["PvWatts"].Triggers.Load() != 12 {
		t.Errorf("PvWatts triggers = %d", st.Tables["PvWatts"].Triggers.Load())
	}
	if st.Tables["PvWatts"].Queries.Load() != 3 {
		t.Errorf("PvWatts queries = %d (one per SumMonth)", st.Tables["PvWatts"].Queries.Load())
	}
	if st.RuleNanos["reduce"].Load() <= 0 {
		t.Error("rule timing missing")
	}
	if run.DeltaLen() != 0 {
		t.Error("delta must be drained")
	}
}

func TestThreadsReported(t *testing.T) {
	p, _ := pvMiniProgram(false)
	run, err := p.NewRun(Options{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if run.Threads() != 3 {
		t.Errorf("Threads() = %d", run.Threads())
	}
	if err := run.Execute(); err != nil {
		t.Fatal(err)
	}
	seq, err := p.NewRun(Options{Strategy: exec.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Threads() != 1 {
		t.Errorf("sequential Threads() = %d", seq.Threads())
	}
	if err := seq.Execute(); err != nil {
		t.Fatal(err)
	}
}
