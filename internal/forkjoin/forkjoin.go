// Package forkjoin is JStar's task scheduler substrate: a fixed pool of
// workers and a chunked parallel-for over it, playing the role of the Java 7
// Fork/Join framework the JStar compiler targets (paper §5).
//
// A parallel-for pushes one helper task per worker onto the pool's shared
// queue; the helpers and the calling goroutine claim chunks of the index
// space through an atomic cursor. The caller joins work-first: a helper no
// worker has claimed yet is run inline instead of waited for, so a
// parallel-for never deadlocks the pool and completes even on a pool that
// has been shut down.
package forkjoin

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// task is one helper of a parallel-for: fn runs with the slot of whoever
// claims it.
type task struct {
	fn    func(slot int)
	state atomic.Int32 // 0 pending, 1 claimed, 2 done
	done  chan struct{}
}

func newTask(fn func(slot int)) *task {
	return &task{fn: fn, done: make(chan struct{})}
}

// tryRun claims and executes the task under slot; reports whether this call
// ran it.
func (t *task) tryRun(slot int) bool {
	if !t.state.CompareAndSwap(0, 1) {
		return false
	}
	t.fn(slot)
	t.state.Store(2)
	close(t.done)
	return true
}

// queue is the pool's mutex-protected FIFO of helper tasks. A mutex is
// plenty here: JStar tasks are chunks of rule firings, orders of magnitude
// heavier than the lock.
type queue struct {
	mu    sync.Mutex
	tasks []*task
}

func (q *queue) push(t *task) {
	q.mu.Lock()
	q.tasks = append(q.tasks, t)
	q.mu.Unlock()
}

// take removes and returns the oldest task nobody has claimed, or nil.
func (q *queue) take() *task {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.tasks) > 0 {
		t := q.tasks[0]
		q.tasks = q.tasks[1:]
		if t.state.Load() == 0 {
			return t
		}
	}
	return nil
}

// Pool is a fixed-size worker pool. Create pools with NewPool.
type Pool struct {
	queue queue

	idleMu   sync.Mutex
	idleCond *sync.Cond
	idle     int
	stopping bool

	pending atomic.Int64 // tasks pushed but not yet claimed-and-finished
	wg      sync.WaitGroup
	size    int
}

// NewPool starts a pool with n workers (n < 1 is clamped to 1). The paper's
// --threads=N flag maps directly onto n.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{size: n}
	p.idleCond = sync.NewCond(&p.idleMu)
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go p.workerLoop(i + 1)
	}
	return p
}

// Size returns the number of workers.
func (p *Pool) Size() int { return p.size }

// workerLoop runs helper tasks under the worker's slot until shutdown.
func (p *Pool) workerLoop(slot int) {
	defer p.wg.Done()
	for {
		t := p.findTask()
		if t == nil {
			return // pool stopped
		}
		if t.tryRun(slot) {
			p.pending.Add(-1)
		}
	}
}

func (p *Pool) findTask() *task {
	for {
		if t := p.queue.take(); t != nil {
			return t
		}
		// Nothing found: park until new work arrives or shutdown.
		p.idleMu.Lock()
		if p.stopping {
			p.idleMu.Unlock()
			return nil
		}
		if p.pending.Load() > 0 {
			// Work appeared between the scan and parking; rescan.
			p.idleMu.Unlock()
			runtime.Gosched()
			continue
		}
		p.idle++
		p.idleCond.Wait()
		p.idle--
		stopping := p.stopping
		p.idleMu.Unlock()
		if stopping {
			return nil
		}
	}
}

func (p *Pool) signal() {
	p.idleMu.Lock()
	if p.idle > 0 {
		p.idleCond.Broadcast()
	}
	p.idleMu.Unlock()
}

// join waits for t, running it inline as slot 0 (the caller's) if no worker
// has claimed it yet.
func (p *Pool) join(t *task) {
	if t.tryRun(0) {
		p.pending.Add(-1)
		return
	}
	<-t.done
}

// Shutdown stops the workers. Tasks already claimed finish; a parallel-for
// still completes afterwards, its caller running the unclaimed helpers
// inline.
func (p *Pool) Shutdown() {
	p.idleMu.Lock()
	p.stopping = true
	p.idleCond.Broadcast()
	p.idleMu.Unlock()
	p.wg.Wait()
}

// For runs body(i) for every i in [0, n) across the pool and the calling
// goroutine. The index space is claimed in chunks through an atomic cursor;
// grain is the minimum chunk size (1 for heavy bodies, larger to amortise
// the cursor for cheap bodies).
func (p *Pool) For(n, grain int, body func(i int)) {
	p.ForWorker(n, grain, func(_, i int) { body(i) }, nil)
}

// ForWorker is For with the executing participant's slot index passed to
// body: slot 0 is the calling goroutine, slots 1..Size() the pool workers. The engine
// uses the slot to give each participant its own put buffer. done, when
// non-nil, is a per-participant epilogue: a participant that finds the
// cursor dry calls done(slot) before it leaves, so the epilogue (the
// engine's put-run seal) runs inside the same barrier as the bodies. A
// slot's done runs after that slot's last body and may run more than once
// (the caller runs it again for every helper task it joins unclaimed).
func (p *Pool) ForWorker(n, grain int, body func(slot, i int), done func(slot int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunk := n / (p.size * 4)
	if chunk < grain {
		chunk = grain
	}
	if n <= chunk || p.size == 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		if done != nil {
			done(0)
		}
		return
	}
	var cursor atomic.Int64
	run := func(slot int) {
		for {
			lo := int(cursor.Add(int64(chunk))) - chunk
			if lo >= n {
				if done != nil {
					done(slot)
				}
				return
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				body(slot, i)
			}
		}
	}
	helpers := p.size
	if max := (n + chunk - 1) / chunk; helpers > max-1 {
		helpers = max - 1
	}
	tasks := make([]*task, 0, helpers)
	for i := 0; i < helpers; i++ {
		t := newTask(run)
		tasks = append(tasks, t)
		p.pending.Add(1)
		p.queue.push(t)
	}
	p.signal()
	run(0) // caller participates as slot 0
	for _, t := range tasks {
		p.join(t)
	}
}
