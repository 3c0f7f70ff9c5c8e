package forkjoin

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversAllIndices(t *testing.T) {
	p := NewPool(8)
	defer p.Shutdown()
	const n = 100000
	seen := make([]int32, n)
	p.For(n, 1, func(i int) { atomic.AddInt32(&seen[i], 1) })
	for i, v := range seen {
		if v != 1 {
			t.Fatalf("index %d executed %d times", i, v)
		}
	}
}

func TestForSmallAndEmpty(t *testing.T) {
	p := NewPool(4)
	defer p.Shutdown()
	p.For(0, 1, func(int) { t.Error("body on empty range") })
	p.For(-3, 1, func(int) { t.Error("body on negative range") })
	count := 0
	p.For(3, 10, func(int) { count++ }) // n < grain runs inline
	if count != 3 {
		t.Errorf("count = %d", count)
	}
}

func TestForGrainClamped(t *testing.T) {
	p := NewPool(4)
	defer p.Shutdown()
	var count atomic.Int64
	p.For(1000, 0, func(int) { count.Add(1) }) // grain 0 clamps to 1
	if count.Load() != 1000 {
		t.Errorf("count = %d", count.Load())
	}
}

// TestForWorkerDone pins the epilogue contract the engine's seal rides on:
// every slot that ran a body gets done(slot) afterwards, no body runs on a
// slot once its done has, and all of it happens before ForWorker returns —
// on the pooled path and on the serial one.
func TestForWorkerDone(t *testing.T) {
	for _, size := range []int{1, 4} {
		p := NewPool(size)
		for round := 0; round < 50; round++ {
			bodies := make([]atomic.Int64, size+1)
			dones := make([]atomic.Int64, size+1)
			var ran atomic.Int64
			p.ForWorker(64, 1, func(slot, _ int) {
				if dones[slot].Load() != 0 {
					t.Errorf("size %d: body on slot %d after its done", size, slot)
				}
				bodies[slot].Add(1)
				ran.Add(1)
			}, func(slot int) { dones[slot].Add(1) })
			if ran.Load() != 64 {
				t.Fatalf("size %d: %d bodies ran, want 64", size, ran.Load())
			}
			for slot := range bodies {
				if bodies[slot].Load() > 0 && dones[slot].Load() == 0 {
					t.Errorf("size %d: slot %d ran %d bodies and no done", size, slot, bodies[slot].Load())
				}
			}
		}
		p.Shutdown()
	}
}

func TestPoolSizeClamp(t *testing.T) {
	p := NewPool(0)
	defer p.Shutdown()
	if p.Size() != 1 {
		t.Errorf("Size = %d, want 1", p.Size())
	}
	count := 0
	p.For(100, 1, func(int) { count++ }) // a one-worker pool runs inline
	if count != 100 {
		t.Errorf("count = %d", count)
	}
}

func TestShutdownStopsWorkers(t *testing.T) {
	p := NewPool(4)
	var count atomic.Int64
	p.For(1000, 1, func(int) { count.Add(1) })
	p.Shutdown() // must return (not hang)
	if count.Load() != 1000 {
		t.Errorf("count = %d", count.Load())
	}
}

// TestJoinHelpingAfterShutdown: a parallel-for on a stopped pool still
// completes — the caller runs the helpers no worker will claim.
func TestJoinHelpingAfterShutdown(t *testing.T) {
	p := NewPool(2)
	p.Shutdown()
	var count atomic.Int64
	doneCh := make(chan struct{})
	go func() {
		p.For(1000, 1, func(int) { count.Add(1) })
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(2 * time.Second):
		t.Fatal("join helping did not complete the loop")
	}
	if count.Load() != 1000 {
		t.Errorf("count = %d", count.Load())
	}
}

func TestManySequentialBatches(t *testing.T) {
	// Simulates the engine's step loop: many small For batches in a row.
	// Regression test for parking/wakeup races (lost signals would hang).
	p := NewPool(4)
	defer p.Shutdown()
	var total atomic.Int64
	for step := 0; step < 2000; step++ {
		p.For(8, 1, func(int) { total.Add(1) })
	}
	if total.Load() != 16000 {
		t.Errorf("total = %d", total.Load())
	}
}

func BenchmarkForOverhead(b *testing.B) {
	p := NewPool(4)
	defer p.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.For(64, 1, func(int) {})
	}
}
