package forkjoin

import (
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSubmitAndJoin(t *testing.T) {
	p := NewPool(4)
	defer p.Shutdown()
	var ran atomic.Bool
	task := p.Submit(func(*Worker) { ran.Store(true) })
	p.Join(task)
	if !ran.Load() || !task.Done() {
		t.Error("submitted task did not run")
	}
}

func TestInvokeRunsAll(t *testing.T) {
	p := NewPool(4)
	defer p.Shutdown()
	const n = 100
	var count atomic.Int64
	fns := make([]func(*Worker), n)
	for i := range fns {
		fns[i] = func(*Worker) { count.Add(1) }
	}
	p.Invoke(fns...)
	if count.Load() != n {
		t.Errorf("ran %d of %d", count.Load(), n)
	}
}

func TestInvokeEmptyAndSingle(t *testing.T) {
	p := NewPool(2)
	defer p.Shutdown()
	p.Invoke() // no-op
	ran := false
	p.Invoke(func(*Worker) { ran = true })
	if !ran {
		t.Error("single invoke")
	}
}

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

func TestRecursiveForkJoin(t *testing.T) {
	// Fibonacci via fork/join exercises the deques and join-helping.
	p := NewPool(4)
	defer p.Shutdown()
	var fib func(w *Worker, n int) int
	fib = func(w *Worker, n int) int {
		if n < 2 {
			return n
		}
		if n < 10 || w == nil {
			return fib(w, n-1) + fib(w, n-2)
		}
		var left int
		lt := w.Fork(func(lw *Worker) { left = fib(lw, n-1) })
		right := fib(w, n-2)
		w.Join(lt)
		return left + right
	}
	var result int
	task := p.Submit(func(w *Worker) { result = fib(w, 25) })
	p.Join(task)
	if result != 75025 {
		t.Errorf("fib(25) = %d, want 75025", result)
	}
}

func TestWorkerIdentity(t *testing.T) {
	p := NewPool(3)
	defer p.Shutdown()
	var id atomic.Int64
	id.Store(-99)
	task := p.Submit(func(w *Worker) {
		if w != nil {
			id.Store(int64(w.ID()))
			if w.Pool() != p {
				t.Error("worker pool mismatch")
			}
		}
	})
	p.Join(task)
	got := id.Load()
	// Either a worker ran it (0..2) or the joiner helped inline (-99 stays).
	if got != -99 && (got < 0 || got > 2) {
		t.Errorf("worker id = %d", got)
	}
}

func TestPoolSizeClamp(t *testing.T) {
	p := NewPool(0)
	defer p.Shutdown()
	if p.Size() != 1 {
		t.Errorf("Size = %d, want 1", p.Size())
	}
	done := make(chan struct{})
	p.Submit(func(*Worker) { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("single worker never ran the task")
	}
}

func TestShutdownStopsWorkers(t *testing.T) {
	p := NewPool(4)
	var count atomic.Int64
	for i := 0; i < 10; i++ {
		p.Submit(func(*Worker) { count.Add(1) })
	}
	p.Shutdown() // must return (not hang)
}

func TestJoinHelpingAfterShutdown(t *testing.T) {
	p := NewPool(1)
	p.Shutdown()
	// Task submitted after shutdown is still completable via join helping.
	task := p.Submit(func(*Worker) {})
	doneCh := make(chan struct{})
	go func() {
		p.Join(task)
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(2 * time.Second):
		t.Fatal("join helping did not complete the task")
	}
}

func TestForEach(t *testing.T) {
	p := NewPool(4)
	defer p.Shutdown()
	items := make([]int, 1000)
	for i := range items {
		items[i] = i
	}
	var sum atomic.Int64
	ForEach(p, items, 8, func(v int) { sum.Add(int64(v)) })
	if sum.Load() != 999*1000/2 {
		t.Errorf("sum = %d", sum.Load())
	}
}

func TestReduceSum(t *testing.T) {
	p := NewPool(8)
	defer p.Shutdown()
	items := make([]int64, 123457)
	for i := range items {
		items[i] = int64(i)
	}
	got := Reduce(p, items, 0, func(a, b int64) int64 { return a + b })
	want := int64(123456) * 123457 / 2
	if got != want {
		t.Errorf("Reduce = %d, want %d", got, want)
	}
}

func TestReduceEmptyIsIdentity(t *testing.T) {
	p := NewPool(2)
	defer p.Shutdown()
	if got := Reduce(p, nil, 42, func(a, b int) int { return a + b }); got != 42 {
		t.Errorf("Reduce(empty) = %d", got)
	}
}

func TestReduceMatchesSequentialProperty(t *testing.T) {
	p := NewPool(4)
	defer p.Shutdown()
	f := func(xs []int32) bool {
		items := make([]int64, len(xs))
		var want int64
		for i, x := range xs {
			items[i] = int64(x)
			want += int64(x)
		}
		got := Reduce(p, items, 0, func(a, b int64) int64 { return a + b })
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScanPrefixSums(t *testing.T) {
	p := NewPool(4)
	defer p.Shutdown()
	items := []int{1, 2, 3, 4, 5, 6, 7}
	got := Scan(p, items, 0, func(a, b int) int { return a + b })
	want := []int{1, 3, 6, 10, 15, 21, 28}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Scan = %v, want %v", got, want)
		}
	}
}

func TestScanMatchesSequentialProperty(t *testing.T) {
	p := NewPool(8)
	defer p.Shutdown()
	f := func(xs []int32) bool {
		items := make([]int64, len(xs))
		for i, x := range xs {
			items[i] = int64(x)
		}
		got := Scan(p, items, 0, func(a, b int64) int64 { return a + b })
		var acc int64
		for i, x := range items {
			acc += x
			if got[i] != acc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScanEmpty(t *testing.T) {
	p := NewPool(2)
	defer p.Shutdown()
	if got := Scan(p, []int{}, 0, func(a, b int) int { return a + b }); len(got) != 0 {
		t.Error("Scan(empty)")
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

func BenchmarkReduce1M(b *testing.B) {
	p := NewPool(8)
	defer p.Shutdown()
	items := make([]int64, 1<<20)
	for i := range items {
		items[i] = int64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Reduce(p, items, 0, func(a, x int64) int64 { return a + x })
	}
}
