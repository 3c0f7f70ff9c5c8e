package core

import (
	"context"
	"strings"
	"testing"

	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// TestPrintlnTableOrdersOutput: the §6.2 fn 8 "kosher way of printing" —
// Println tuples flow through the Delta set, so their side effects follow
// the causality ordering even under parallel execution.
func TestPrintlnTableOrdersOutput(t *testing.T) {
	for _, opts := range []Options{{Strategy: exec.Sequential}, {Threads: 4}} {
		p := NewProgram()
		work := p.Table("Work",
			[]tuple.Column{{Name: "step", Kind: tuple.KindInt}, {Name: "i", Kind: tuple.KindInt}},
			[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("step")})
		out := p.PrintlnTable("Println",
			[]tuple.OrderEntry{tuple.Lit("Print"), tuple.Seq("line")})
		p.Order("Int", "Print")
		p.Rule("emit", work, func(c *Ctx, w *tuple.Tuple) {
			step, i := w.Int("step"), w.Int("i")
			c.PutNew(out, tuple.String_(string(rune('a'+step))+"-"+string(rune('0'+i))))
			if step < 3 {
				c.PutNew(work, tuple.Int(step+1), tuple.Int(i))
			}
		})
		// Two parallel items per step; output must still be sorted because
		// Println tuples order by (Print, seq line) and print in extraction
		// order (line order within a batch, step order across batches...
		// here all Println tuples land in one batch sorted by line).
		p.Put(tuple.New(work, tuple.Int(0), tuple.Int(0)))
		p.Put(tuple.New(work, tuple.Int(0), tuple.Int(1)))
		run, err := p.Execute(opts)
		if err != nil {
			t.Fatal(err)
		}
		lines := run.Output()
		if len(lines) != 8 {
			t.Fatalf("lines = %q", lines)
		}
		joined := strings.Join(lines, "")
		want := "a-0\na-1\nb-0\nb-1\nc-0\nc-1\nd-0\nd-1\n"
		if joined != want {
			t.Errorf("opts %+v: output\n%q\nwant\n%q", opts, joined, want)
		}
	}
}

func TestActionRunsOnExtractionOnly(t *testing.T) {
	p := NewProgram()
	a := p.Table("A", []tuple.Column{{Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Seq("v")})
	var seen []int64
	p.Action(a, func(run *Run, t *tuple.Tuple) {
		seen = append(seen, t.Int("v"))
	})
	p.Put(tuple.New(a, tuple.Int(2)))
	p.Put(tuple.New(a, tuple.Int(1)))
	p.Put(tuple.New(a, tuple.Int(2))) // duplicate: one extraction only
	if _, err := p.Execute(Options{Strategy: exec.Sequential}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Errorf("actions ran as %v, want [1 2]", seen)
	}
}

func TestDuplicateActionPanics(t *testing.T) {
	p := NewProgram()
	a := p.Table("A", []tuple.Column{{Name: "v", Kind: tuple.KindInt}}, nil)
	p.Action(a, func(*Run, *tuple.Tuple) {})
	defer func() {
		if recover() == nil {
			t.Error("second action on one table must panic")
		}
	}()
	p.Action(a, func(*Run, *tuple.Tuple) {})
}

// TestExecuteEvents drives the event-driven mode (§3) through a Session:
// external input tuples trigger rules as they arrive, each quiescence
// covers the events put so far, and the database is a running sum.
func TestExecuteEvents(t *testing.T) {
	p := NewProgram()
	// Timestamp-first orderby lists: Total(t) must order before Input(t+1)
	// even when several external events are absorbed into the Delta set
	// together, so the timestamp leads and the table literal breaks ties.
	in := p.Table("Input", []tuple.Column{{Name: "t", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Seq("t"), tuple.Lit("In")})
	total := p.Table("Total",
		[]tuple.Column{{Name: "t", Kind: tuple.KindInt, Key: true}, {Name: "sum", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Seq("t"), tuple.Lit("Total")})
	p.Order("In", "Total")
	// Running sum over inputs: each event queries the previous total.
	p.Rule("accumulate", in, func(c *Ctx, e *tuple.Tuple) {
		ts := e.Int("t")
		prev := c.GetMin(total, gamma.Query{
			Where: func(tt *tuple.Tuple) bool { return tt.Int("t") == ts-1 },
		}, "t")
		var sum int64
		if prev != nil {
			sum = prev.Int("sum")
		}
		c.PutNew(total, tuple.Int(ts), tuple.Int(sum+ts))
	})
	ctx := context.Background()
	s, err := p.Start(ctx, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Events 1-2 one at a time, 3-5 as one batch.
	for _, batch := range [][]int64{{1}, {2}, {3, 4, 5}} {
		for _, i := range batch {
			if err := s.Put(tuple.New(in, tuple.Int(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Final total: 1+2+3+4+5 = 15.
	var final int64
	s.Run().Gamma().Table(total).Scan(func(tt *tuple.Tuple) bool {
		if tt.Int("t") == 5 {
			final = tt.Int("sum")
		}
		return true
	})
	if final != 15 {
		t.Errorf("running sum = %d, want 15", final)
	}
	if got := s.Stats().FlowEdges()[[2]string{"event", "Input"}]; got != 5 {
		t.Errorf("event -> Input flow = %d, want 5", got)
	}
}

// TestExecuteEventsClosedImmediately: a session closed without any event
// still runs the program's initial puts.
func TestExecuteEventsClosedImmediately(t *testing.T) {
	p := NewProgram()
	a := p.Table("A", []tuple.Column{{Name: "v", Kind: tuple.KindInt}}, nil)
	p.Rule("noop", a, func(*Ctx, *tuple.Tuple) {})
	p.Put(tuple.New(a, tuple.Int(1)))
	s, err := p.Start(context.Background(), Options{Strategy: exec.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Steps != 1 {
		t.Errorf("steps = %d (initial put must still run)", s.Stats().Steps)
	}
}
