package core

import (
	"github.com/jstar-lang/jstar/internal/exec"
	"strings"
	"testing"

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

// TestExecuteEvents drives the event-driven mode (§3): external input
// tuples trigger rules as they arrive; the run ends when the channel
// closes and the database quiesces.
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
	run, err := p.NewRun(Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	events := make(chan *tuple.Tuple)
	go func() {
		for i := int64(1); i <= 5; i++ {
			events <- tuple.New(in, tuple.Int(i))
		}
		close(events)
	}()
	if err := run.ExecuteEvents(events); err != nil {
		t.Fatal(err)
	}
	// Final total: 1+2+3+4+5 = 15.
	last := run.Gamma().Table(total)
	var final int64
	last.Scan(func(tt *tuple.Tuple) bool {
		if tt.Int("t") == 5 {
			final = tt.Int("sum")
		}
		return true
	})
	if final != 15 {
		t.Errorf("running sum = %d, want 15", final)
	}
}

func TestExecuteEventsClosedImmediately(t *testing.T) {
	p := NewProgram()
	a := p.Table("A", []tuple.Column{{Name: "v", Kind: tuple.KindInt}}, nil)
	p.Rule("noop", a, func(*Ctx, *tuple.Tuple) {})
	p.Put(tuple.New(a, tuple.Int(1)))
	run, err := p.NewRun(Options{Strategy: exec.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	events := make(chan *tuple.Tuple)
	close(events)
	if err := run.ExecuteEvents(events); err != nil {
		t.Fatal(err)
	}
	if run.Stats().Steps != 1 {
		t.Errorf("steps = %d (initial put must still run)", run.Stats().Steps)
	}
}
