package core

import (
	"sync/atomic"
	"testing"

	"github.com/jstar-lang/jstar/internal/forkjoin"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// TestSharedPoolAcrossRuns: benchmarks reuse one fork/join pool across many
// runs via Options.Pool; the run must not shut the shared pool down.
func TestSharedPoolAcrossRuns(t *testing.T) {
	pool := forkjoin.NewPool(3)
	defer pool.Shutdown()
	for i := 0; i < 3; i++ {
		p, read := sharedPoolProgram()
		run, err := p.NewRun(Options{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		if run.Threads() != 3 {
			t.Fatalf("run %d: Threads = %d, want pool size 3", i, run.Threads())
		}
		if err := run.Execute(); err != nil {
			t.Fatal(err)
		}
		if got := read(run); got != 10 {
			t.Fatalf("run %d: result = %d", i, got)
		}
	}
	// Pool must still be alive after the runs.
	var ran atomic.Int64
	pool.For(64, 1, func(int) { ran.Add(1) })
	if ran.Load() != 64 {
		t.Errorf("shared pool ran %d of 64 bodies after the runs", ran.Load())
	}
}

func sharedPoolProgram() (*Program, func(*Run) int) {
	p := NewProgram()
	n := p.Table("N", []tuple.Column{{Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("v")})
	out := p.Table("Out", []tuple.Column{{Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Out")})
	p.Order("Int", "Out")
	p.Rule("step", n, func(c *Ctx, t *tuple.Tuple) {
		v := t.Int("v")
		if v < 10 {
			c.PutNew(n, tuple.Int(v+1))
		}
		c.PutNew(out, tuple.Int(v))
	})
	p.Put(tuple.New(n, tuple.Int(1)))
	return p, func(r *Run) int { return r.Gamma().Table(out).Len() }
}

// TestMaxBatchStat verifies the all-minimums batching is observable.
func TestMaxBatchStat(t *testing.T) {
	p := NewProgram()
	w := p.Table("W", []tuple.Column{{Name: "step", Kind: tuple.KindInt}, {Name: "i", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Seq("step")})
	p.Rule("noop", w, func(c *Ctx, t *tuple.Tuple) {})
	for i := int64(0); i < 16; i++ {
		p.Put(tuple.New(w, tuple.Int(1), tuple.Int(i)))
	}
	run, err := p.Execute(Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if run.Stats().MaxBatch != 16 {
		t.Errorf("MaxBatch = %d, want 16 (same-step tuples are one class)", run.Stats().MaxBatch)
	}
	if run.Stats().Steps != 1 {
		t.Errorf("Steps = %d, want 1", run.Stats().Steps)
	}
}
