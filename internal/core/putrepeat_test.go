package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/testrace"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// A put equal to its slot buffer's tail is dropped at the put instead of at
// the step boundary. These tests pin that the drop cannot be observed:
// every counter and every quiesced table is what the boundary's dedup
// alone would produce. Each expected value below is derived by hand from
// the program, not recorded from a run.

// bufLen is the length of the firing slot's put buffer.
func bufLen(c *Ctx) int {
	sl := &c.run.slots[c.slot]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return len(sl.buf)
}

// repeatCase is one program whose rules put repeats, with its hand-derived
// outcome.
type repeatCase struct {
	name    string
	noGamma []string
	build   func() (p *Program, lastBuf *atomic.Int64)
	// per table: Puts, Duplicates, Triggers; and the quiesced contents
	stats    map[string][3]int64
	snaps    map[string]string
	fired    int64
	steps    int64
	buffered int64 // put-buffer length after the last A firing, Threads 1 only
}

func intTable(p *Program, name string) *tuple.Schema {
	return p.Table(name, []tuple.Column{{Name: "g", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit(name)})
}

// seedA puts A(0..39); A(k) belongs to group k/3, so fourteen groups
// (the last of one firing) that run consecutively in step order. Three
// does not divide the fan-out's chunk of five, so at Threads 2 chunks
// split groups across slots.
func seedA(p *Program) *tuple.Schema {
	a := intTable(p, "A")
	for k := range int64(40) {
		p.Put(tuple.New(a, tuple.Int(k)))
	}
	return a
}

// upTo renders table name's tuples 0..n-1 as the snapshot check prints them.
func upTo(name string, n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprintf("%s(%d)", name, i)
	}
	return strings.Join(parts, " ")
}

var repeatCases = []repeatCase{{
	// Each A firing puts its group's B three times in a row; each B firing
	// puts its E twice through the other put path. A: 40 puts, 40
	// triggers. B: 120 puts, 14 distinct, so 106 duplicates, 14 triggers.
	// E: 28 puts, 14 duplicates, no rule. Steps: A, B, E.
	name: "consecutive",
	build: func() (*Program, *atomic.Int64) {
		p := NewProgram()
		a := seedA(p)
		b, e := intTable(p, "B"), intTable(p, "E")
		p.Order("A", "B", "E")
		var last atomic.Int64
		p.Rule("group", a, func(c *Ctx, t *tuple.Tuple) {
			g := tuple.Int(t.Int("g") / 3)
			c.PutNew(b, g)
			c.PutNew(b, g)
			c.PutNew(b, g)
			last.Store(int64(bufLen(c)))
		})
		p.Rule("echo", b, func(c *Ctx, t *tuple.Tuple) {
			c.Put(tuple.New(e, t.Field(0)))
			c.Put(tuple.New(e, t.Field(0)))
		})
		return p, &last
	},
	stats:    map[string][3]int64{"A": {40, 0, 40}, "B": {120, 106, 14}, "E": {28, 14, 0}},
	snaps:    map[string]string{"B": upTo("B", 14), "E": upTo("E", 14)},
	fired:    54,
	steps:    3,
	buffered: 14, // one B per group: every repeat was dropped at its put
}, {
	// Each A firing puts B, C, B, C for its group: every repeat follows a
	// put of the other table, so none is the tail and all reach the
	// boundary. B and C: 80 puts each, 14 distinct, 66 duplicates, 14
	// triggers.
	name: "interleaved",
	build: func() (*Program, *atomic.Int64) {
		p := NewProgram()
		a := seedA(p)
		b, c := intTable(p, "B"), intTable(p, "C")
		p.Order("A", "B", "C")
		var last atomic.Int64
		p.Rule("group", a, func(x *Ctx, t *tuple.Tuple) {
			g := tuple.Int(t.Int("g") / 3)
			x.PutNew(b, g)
			x.PutNew(c, g)
			x.Put(tuple.New(b, g))
			x.PutNew(c, g)
			last.Store(int64(bufLen(x)))
		})
		p.Rule("b", b, func(*Ctx, *tuple.Tuple) {})
		p.Rule("c", c, func(*Ctx, *tuple.Tuple) {})
		return p, &last
	},
	stats:    map[string][3]int64{"A": {40, 0, 40}, "B": {80, 66, 14}, "C": {80, 66, 14}},
	snaps:    map[string]string{"B": upTo("B", 14), "C": upTo("C", 14)},
	fired:    68,
	steps:    3,
	buffered: 160, // all four puts of all forty firings
}, {
	// N is -noGamma, so nothing remembers it across steps. N(1)'s first
	// firing puts N(1) twice (the second is a repeat), its second firing
	// puts N(1) once more in a later step, where the buffer is fresh: it
	// must fire a third time. Puts: the seed, 2, 1; one duplicate; three
	// triggers, three steps.
	name:    "noGamma-next-step",
	noGamma: []string{"N"},
	build: func() (*Program, *atomic.Int64) {
		p := NewProgram()
		n := intTable(p, "N")
		var firings atomic.Int64
		p.Rule("again", n, func(c *Ctx, t *tuple.Tuple) {
			switch firings.Add(1) {
			case 1:
				c.PutNew(n, t.Field(0))
				c.PutNew(n, t.Field(0))
			case 2:
				c.PutNew(n, t.Field(0))
			}
		})
		p.Put(tuple.New(n, tuple.Int(1)))
		return p, nil
	},
	stats: map[string][3]int64{"N": {4, 1, 3}},
	fired: 3,
	steps: 3,
}}

// TestRepeatedPutDropIsUnobservable runs each repeat program at Threads 1
// (one slot: every consecutive repeat meets its tail) and at Threads 2
// under ForkJoin (chunks split the group runs across slots, so some
// repeats land on a fresh tail and reach the boundary) and checks the
// hand-derived counters and quiesced tables, plus, at Threads 1, that the
// buffer held only what the drop let through.
func TestRepeatedPutDropIsUnobservable(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"threads1", Options{Threads: 1}},
		{"forkjoin2", Options{Strategy: exec.ForkJoin, Threads: 2}},
	}
	for _, tc := range repeatCases {
		for _, cfg := range configs {
			t.Run(tc.name+"/"+cfg.name, func(t *testing.T) {
				p, last := tc.build()
				opts := cfg.opts
				opts.Quiet, opts.NoGamma = true, tc.noGamma
				s, err := p.Start(context.Background(), opts)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if err := s.Quiesce(context.Background()); err != nil {
					t.Fatal(err)
				}
				st := s.Stats()
				for name, want := range tc.stats {
					ts := st.Tables[name]
					got := [3]int64{ts.Puts.Load(), ts.Duplicates.Load(), ts.Triggers.Load()}
					if got != want {
						t.Errorf("%s: puts, duplicates, triggers = %v, want %v", name, got, want)
					}
				}
				if got := atomic.LoadInt64(&st.TotalFired); got != tc.fired {
					t.Errorf("TotalFired = %d, want %d", got, tc.fired)
				}
				if st.Steps != tc.steps {
					t.Errorf("Steps = %d, want %d", st.Steps, tc.steps)
				}
				for _, name := range tc.noGamma {
					if _, err := s.Snapshot(p.Schema(name)); err == nil {
						t.Errorf("Snapshot(%s) of a -noGamma table succeeded", name)
					}
				}
				for name, want := range tc.snaps {
					var parts []string
					for _, x := range snapshot(t, s, p.Schema(name)) {
						parts = append(parts, x.String())
					}
					if got := strings.Join(parts, " "); got != want {
						t.Errorf("%s = %q, want %q", name, got, want)
					}
				}
				if last != nil && cfg.opts.Threads == 1 && last.Load() != tc.buffered {
					t.Errorf("put buffer after the last A firing holds %d tuples, want %d", last.Load(), tc.buffered)
				}
				if last != nil && cfg.opts.Threads == 2 && st.FannedSteps != tc.steps {
					t.Errorf("%d of %d steps fanned out, want all: the chunks must split the groups", st.FannedSteps, tc.steps)
				}
			})
		}
	}
}

// TestRepeatedPutStillChecksCausality: a dropped repeat is checked against
// its own trigger. A's firing puts B(1) legally (A < B) and X(9); X is
// -noDelta, so X(9) fires at once on the same slot, and its put of B(1)
// repeats the buffer's tail from a trigger later than B: the run must fail
// with the located violation, through either put path.
func TestRepeatedPutStillChecksCausality(t *testing.T) {
	for _, viaNew := range []bool{true, false} {
		t.Run(fmt.Sprintf("PutNew=%v", viaNew), func(t *testing.T) {
			p := NewProgram()
			a, b, x := intTable(p, "A"), intTable(p, "B"), intTable(p, "X")
			p.Order("A", "B", "X")
			p.Rule("first", a, func(c *Ctx, _ *tuple.Tuple) {
				c.PutNew(b, tuple.Int(1))
				c.PutNew(x, tuple.Int(9))
			})
			p.Rule("late", x, func(c *Ctx, _ *tuple.Tuple) {
				if viaNew {
					c.PutNew(b, tuple.Int(1))
				} else {
					c.Put(tuple.New(b, tuple.Int(1)))
				}
			})
			p.Put(tuple.New(a, tuple.Int(0)))
			_, err := p.Execute(Options{Threads: 1, Quiet: true, NoDelta: []string{"X"}, CheckCausality: true})
			want := "jstar: rule late on X(9) panicked: jstar: causality violation: rule triggered by X(9)"
			if err == nil || !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), "put B(1)") {
				t.Fatalf("err = %v, want it to start %q and name B(1)", err, want)
			}
		})
	}
}

// TestRepeatedPutNewAllocatesNothing: a firing that puts the same tuple
// eight times builds it once; the seven repeats are recognised from their
// fields. Counts, not timings.
func TestRepeatedPutNewAllocatesNothing(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := NewProgram()
	a := intTable(p, "A")
	g := p.Table("G", []tuple.Column{{Name: "y", Kind: tuple.KindInt}, {Name: "m", Kind: tuple.KindFloat}},
		[]tuple.OrderEntry{tuple.Lit("G")})
	p.Order("A", "G")
	rule := p.Rule("group", a, func(*Ctx, *tuple.Tuple) {})
	run, c := quiescedCtx(t, p, Options{})
	c.rule, c.trigger = rule, tuple.New(a, tuple.Int(0))
	sl := &run.slots[c.slot]
	got := testing.AllocsPerRun(100, func() {
		sl.buf = sl.buf[:0] // a fresh step: the buffer keeps its capacity
		for range 8 {
			c.PutNew(g, tuple.Int(2024), tuple.Int(7)) // widened on build and on compare
		}
	})
	if got != 1 {
		t.Errorf("eight equal PutNews made %v allocations, want 1", got)
	}
	if n := len(sl.buf); n != 1 {
		t.Errorf("buffer holds %d tuples, want 1", n)
	}
	clear(sl.buf)
	sl.buf = sl.buf[:0]
}

// TestQueryOfUndeclaredTableFails: a rule querying a schema the program
// never declared fails the run with a located error instead of a nil
// dereference, through every query form.
func TestQueryOfUndeclaredTableFails(t *testing.T) {
	other := tuple.MustSchema("Other", []tuple.Column{{Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Other")})
	queries := map[string]func(*Ctx){
		"GetUniq": func(c *Ctx) { c.GetUniq(other, gamma.Query{}) },
		"ForEach": func(c *Ctx) { c.ForEach(other, gamma.Query{}, func(*tuple.Tuple) bool { return true }) },
		"Exists":  func(c *Ctx) { c.Exists(other, gamma.Query{}) },
		"Count":   func(c *Ctx) { c.Count(other, gamma.Query{}) },
	}
	for name, query := range queries {
		t.Run(name, func(t *testing.T) {
			p := NewProgram()
			a := intTable(p, "A")
			p.Rule("r", a, func(c *Ctx, _ *tuple.Tuple) { query(c) })
			p.Put(tuple.New(a, tuple.Int(1)))
			_, err := p.Execute(Options{Threads: 1, Quiet: true})
			want := "jstar: rule r on A(1) panicked: jstar: query of undeclared table Other"
			if err == nil || err.Error() != want {
				t.Fatalf("err = %v, want %q", err, want)
			}
		})
	}
}
