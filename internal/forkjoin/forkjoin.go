// Package forkjoin is JStar's task scheduler substrate: a work-stealing pool
// with fork/join tasks and a chunked parallel-for, playing the role of the
// Java 7 Fork/Join framework the JStar compiler targets (paper §5).
//
// Each worker owns a deque: it pushes and pops forked tasks at the tail
// (LIFO, good locality) while idle workers steal from the head (FIFO, steals
// the largest remaining subproblems first in divide-and-conquer workloads).
// Join is work-first: a joiner that finds the task still pending executes it
// inline instead of blocking, so joining never deadlocks the pool.
package forkjoin

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Worker identifies the executing pool worker inside a task body. Task
// functions receive the Worker so that Fork can push to the worker's own
// deque. A nil Worker is valid everywhere and means "external caller".
type Worker struct {
	pool *Pool
	id   int
	rng  *rand.Rand
}

// Pool returns the worker's pool.
func (w *Worker) Pool() *Pool { return w.pool }

// ID returns the worker index in [0, pool.Size()).
func (w *Worker) ID() int { return w.id }

// Task is a unit of work that may be forked onto the pool and joined later.
type Task struct {
	fn    func(*Worker)
	state atomic.Int32 // 0 pending, 1 claimed, 2 done
	done  chan struct{}
}

func newTask(fn func(*Worker)) *Task {
	return &Task{fn: fn, done: make(chan struct{})}
}

// tryRun claims and executes the task on w; reports whether this call ran it.
func (t *Task) tryRun(w *Worker) bool {
	if !t.state.CompareAndSwap(0, 1) {
		return false
	}
	t.fn(w)
	t.state.Store(2)
	close(t.done)
	return true
}

// Done reports whether the task has completed.
func (t *Task) Done() bool { return t.state.Load() == 2 }

// deque is a mutex-protected double-ended queue. The owner pushes/pops at
// the tail; thieves steal from the head. A mutex per worker is plenty here:
// JStar tasks are rule firings, orders of magnitude heavier than the lock.
type deque struct {
	mu    sync.Mutex
	tasks []*Task
}

func (d *deque) push(t *Task) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

func (d *deque) pop() *Task {
	d.mu.Lock()
	defer d.mu.Unlock()
	for n := len(d.tasks); n > 0; n = len(d.tasks) {
		t := d.tasks[n-1]
		d.tasks[n-1] = nil
		d.tasks = d.tasks[:n-1]
		if t.state.Load() == 0 {
			return t
		}
	}
	return nil
}

func (d *deque) steal() *Task {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.tasks) > 0 {
		t := d.tasks[0]
		d.tasks = d.tasks[1:]
		if t.state.Load() == 0 {
			return t
		}
	}
	return nil
}

// Pool is a fixed-size work-stealing pool. Create pools with NewPool.
type Pool struct {
	deques []*deque
	global deque

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
	p.deques = make([]*deque, n)
	for i := range p.deques {
		p.deques[i] = &deque{}
	}
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go p.workerLoop(i)
	}
	return p
}

// Size returns the number of workers.
func (p *Pool) Size() int { return p.size }

func (p *Pool) workerLoop(id int) {
	defer p.wg.Done()
	w := &Worker{pool: p, id: id, rng: rand.New(rand.NewSource(int64(id)*1000003 + 17))}
	for {
		t := p.findTask(w)
		if t == nil {
			return // pool stopped
		}
		if t.tryRun(w) {
			p.pending.Add(-1)
		}
	}
}

func (p *Pool) findTask(w *Worker) *Task {
	for {
		if t := p.deques[w.id].pop(); t != nil {
			return t
		}
		if t := p.global.steal(); t != nil {
			return t
		}
		start := w.rng.Intn(p.size)
		for i := 0; i < p.size; i++ {
			v := (start + i) % p.size
			if v == w.id {
				continue
			}
			if t := p.deques[v].steal(); t != nil {
				return t
			}
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

// Submit schedules fn on the pool and returns its joinable task. Called
// from outside a worker it pushes to the shared inject queue; tasks that
// want cheap recursive forking should use Worker.Fork inside their body.
func (p *Pool) Submit(fn func(*Worker)) *Task {
	t := newTask(fn)
	p.pending.Add(1)
	p.global.push(t)
	p.signal()
	return t
}

// Fork schedules fn on this worker's own deque (LIFO), where it will be
// popped next by this worker or stolen by an idle one.
func (w *Worker) Fork(fn func(*Worker)) *Task {
	t := newTask(fn)
	p := w.pool
	p.pending.Add(1)
	p.deques[w.id].push(t)
	p.signal()
	return t
}

// Join waits for t, running it inline on w if no worker claimed it yet.
// w may be nil for external joiners.
func (w *Worker) Join(t *Task) {
	if t.tryRun(w) {
		w.pool.pending.Add(-1)
		return
	}
	<-t.done
}

// Join waits for the task from outside the pool, helping by running it
// inline (with a nil Worker) if it is still unclaimed.
func (p *Pool) Join(t *Task) {
	if t.tryRun(nil) {
		p.pending.Add(-1)
		return
	}
	<-t.done
}

// Shutdown stops the workers. Tasks already claimed finish; unclaimed tasks
// can still be completed by joiners (join helping runs them inline).
func (p *Pool) Shutdown() {
	p.idleMu.Lock()
	p.stopping = true
	p.idleCond.Broadcast()
	p.idleMu.Unlock()
	p.wg.Wait()
}

// Invoke runs all fns across the pool and returns when every one has
// completed. The calling goroutine participates.
func (p *Pool) Invoke(fns ...func(*Worker)) {
	switch len(fns) {
	case 0:
		return
	case 1:
		fns[0](nil)
		return
	}
	tasks := make([]*Task, len(fns))
	for i, fn := range fns {
		tasks[i] = newTask(fn)
		p.pending.Add(1)
		p.global.push(tasks[i])
	}
	p.signal()
	for i := len(tasks) - 1; i >= 0; i-- {
		p.Join(tasks[i])
	}
}

// For runs body(i) for every i in [0, n) across the pool and the calling
// goroutine. The index space is claimed in chunks through an atomic cursor;
// grain is the minimum chunk size (1 for heavy bodies, larger to amortise
// the cursor for cheap bodies).
func (p *Pool) For(n, grain int, body func(i int)) {
	p.ForWorker(n, grain, func(_, i int) { body(i) }, nil)
}

// ForWorker is For with the executing worker's slot index passed to body:
// slot 0 is the calling goroutine, slot 1+w.ID() a pool worker. The engine
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
	run := func(w *Worker) {
		slot := 0
		if w != nil {
			slot = w.id + 1
		}
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
	tasks := make([]*Task, 0, helpers)
	for i := 0; i < helpers; i++ {
		t := newTask(run)
		tasks = append(tasks, t)
		p.pending.Add(1)
		p.global.push(t)
	}
	p.signal()
	run(nil) // caller participates as slot 0
	for _, t := range tasks {
		p.Join(t)
	}
}

// ForEach is For over a slice.
func ForEach[T any](p *Pool, items []T, grain int, body func(item T)) {
	p.For(len(items), grain, func(i int) { body(items[i]) })
}

// Reduce computes a parallel tree reduction of items with a user-defined
// associative operator — the runtime support behind JStar's reduce
// operations (paper §1.3). identity must be the operator's unit.
func Reduce[T any](p *Pool, items []T, identity T, op func(a, b T) T) T {
	n := len(items)
	if n == 0 {
		return identity
	}
	workers := p.size
	if workers > n {
		workers = n
	}
	partial := make([]T, workers)
	chunk := (n + workers - 1) / workers
	p.For(workers, 1, func(w int) {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		acc := identity
		for i := lo; i < hi; i++ {
			acc = op(acc, items[i])
		}
		partial[w] = acc
	})
	acc := identity
	for _, v := range partial {
		acc = op(acc, v)
	}
	return acc
}

// Scan computes an inclusive parallel prefix scan of items under op in two
// passes (per-chunk reduce, then per-chunk rescan with carried offsets).
// It returns a new slice; items is not modified.
func Scan[T any](p *Pool, items []T, identity T, op func(a, b T) T) []T {
	n := len(items)
	out := make([]T, n)
	if n == 0 {
		return out
	}
	workers := p.size
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	sums := make([]T, workers)
	p.For(workers, 1, func(w int) {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		acc := identity
		for i := lo; i < hi; i++ {
			acc = op(acc, items[i])
		}
		sums[w] = acc
	})
	offsets := make([]T, workers)
	acc := identity
	for w := 0; w < workers; w++ {
		offsets[w] = acc
		acc = op(acc, sums[w])
	}
	p.For(workers, 1, func(w int) {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		acc := offsets[w]
		for i := lo; i < hi; i++ {
			acc = op(acc, items[i])
			out[i] = acc
		}
	})
	return out
}
