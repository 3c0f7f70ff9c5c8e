// Package disruptor implements a Disruptor-style ring buffer — the data
// transfer substrate of the §6.3 PvWatts redesign. It reproduces the LMAX
// Disruptor mechanics the paper tunes in Table 1: a pre-allocated power-of-
// two ring, a single producer claiming slots in batches, multiple consumers
// each with their own sequence, pluggable wait strategies (blocking,
// yielding, busy-spin), and cache-line-padded sequences to avoid false
// sharing. Object slots are recycled rather than garbage collected.
//
// Rings built with NewMultiRing additionally support concurrent publishers
// (MultiProducer): slots are claimed with a fetch-add on the cursor and
// out-of-order fills are published through a per-slot availability buffer,
// the LMAX multi-producer sequencer. Its one user is the repo benchmark's
// disruptor.publish row, through ShardedRing.
package disruptor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Sequence is a cache-line padded monotonic counter. The padding keeps each
// consumer's sequence on its own cache line — the "carefully designed to
// reduce cache line contention" property of the original.
type Sequence struct {
	_ [7]int64
	v atomic.Int64
	_ [7]int64
}

// Load returns the current value.
func (s *Sequence) Load() int64 { return s.v.Load() }

// Store sets the value.
func (s *Sequence) Store(x int64) { s.v.Store(x) }

// Add atomically adds d and returns the new value.
func (s *Sequence) Add(d int64) int64 { return s.v.Add(d) }

// WaitStrategy controls how a goroutine waits for a sequence to advance.
type WaitStrategy interface {
	// WaitFor blocks until load() >= target, returning the observed value.
	WaitFor(target int64, load func() int64) int64
	// Signal wakes blocked waiters after a sequence advances.
	Signal()
	// Name is the strategy's display name for Table-1 style reports.
	Name() string
}

// BlockingWait parks waiters on a condition variable: lowest CPU use,
// highest wake-up latency. The paper's best PvWatts setting.
type BlockingWait struct {
	mu   sync.Mutex
	cond *sync.Cond
	once sync.Once
}

func (w *BlockingWait) init() { w.cond = sync.NewCond(&w.mu) }

// WaitFor implements WaitStrategy.
func (w *BlockingWait) WaitFor(target int64, load func() int64) int64 {
	if v := load(); v >= target {
		return v
	}
	w.once.Do(w.init)
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if v := load(); v >= target {
			return v
		}
		w.cond.Wait()
	}
}

// Signal implements WaitStrategy.
func (w *BlockingWait) Signal() {
	w.once.Do(w.init)
	w.mu.Lock()
	w.cond.Broadcast()
	w.mu.Unlock()
}

// Name implements WaitStrategy.
func (w *BlockingWait) Name() string { return "BlockingWaitStrategy" }

// YieldingWait spins, yielding the processor between checks.
type YieldingWait struct{}

// WaitFor implements WaitStrategy.
func (YieldingWait) WaitFor(target int64, load func() int64) int64 {
	for {
		if v := load(); v >= target {
			return v
		}
		runtime.Gosched()
	}
}

// Signal implements WaitStrategy.
func (YieldingWait) Signal() {}

// Name implements WaitStrategy.
func (YieldingWait) Name() string { return "YieldingWaitStrategy" }

// BusySpinWait spins without yielding: lowest latency, burns a core.
type BusySpinWait struct{}

// WaitFor implements WaitStrategy.
func (BusySpinWait) WaitFor(target int64, load func() int64) int64 {
	for i := 0; ; i++ {
		if v := load(); v >= target {
			return v
		}
		if i%1024 == 1023 {
			// Safety valve so GOMAXPROCS=1 tests cannot livelock.
			runtime.Gosched()
		}
	}
}

// Signal implements WaitStrategy.
func (BusySpinWait) Signal() {}

// Name implements WaitStrategy.
func (BusySpinWait) Name() string { return "BusySpinWaitStrategy" }

// Ring is a multi-consumer ring buffer of T. A ring built with NewRing has
// exactly one producer (Producer); a ring built with NewMultiRing supports
// concurrent publishers through a MultiProducer. In single-producer mode
// cursor is the highest *published* sequence; in multi-producer mode it is
// the highest *claimed* sequence, and per-slot availability flags (avail)
// record which claimed slots have actually been published, exactly the
// LMAX multi-producer sequencer design.
type Ring[T any] struct {
	buf    []T
	mask   int64
	cursor Sequence // highest published (single) / claimed (multi) sequence; -1 initially
	avail  []atomic.Int64
	gating []*Sequence
	wait   WaitStrategy
	closed atomic.Bool
}

// NewRing allocates a ring with the given power-of-two size.
func NewRing[T any](size int, wait WaitStrategy) *Ring[T] {
	if size <= 0 || size&(size-1) != 0 {
		panic(fmt.Sprintf("disruptor: ring size %d is not a power of two", size))
	}
	r := &Ring[T]{buf: make([]T, size), mask: int64(size - 1), wait: wait}
	r.cursor.Store(-1)
	return r
}

// NewMultiRing allocates a ring whose slots may be claimed by many
// concurrent publishers (NewMultiProducer). The availability buffer stores,
// per slot, the sequence last published into it (-1 when never published),
// so consumers can tell a claimed-but-unwritten slot from a published one.
func NewMultiRing[T any](size int, wait WaitStrategy) *Ring[T] {
	r := NewRing[T](size, wait)
	r.avail = make([]atomic.Int64, size)
	for i := range r.avail {
		r.avail[i].Store(-1)
	}
	return r
}

// highestPublished returns the highest sequence h in [lo, hi] such that
// every sequence in [lo, h] has been published, or lo-1 when lo itself is
// still pending. Single-producer rings publish in claim order, so hi is
// already contiguous; multi-producer rings scan the availability buffer up
// to the first gap (a slot another publisher has claimed but not yet
// filled).
func (r *Ring[T]) highestPublished(lo, hi int64) int64 {
	if r.avail == nil {
		return hi
	}
	for s := lo; s <= hi; s++ {
		if r.avail[s&r.mask].Load() != s {
			return s - 1
		}
	}
	return hi
}

// Release marks every registered consumer as caught up arbitrarily far in
// the future and wakes all waiters, permanently un-gating publishers that
// are blocked on a full ring. The consuming side calls it when it shuts
// down: slots written after Release are never read, so publishers race
// only against the garbage collector, never against a dead consumer.
func (r *Ring[T]) Release() {
	for _, s := range r.gating {
		s.Store(1<<62 - 1)
	}
	r.wait.Signal()
}

// Size returns the ring capacity.
func (r *Ring[T]) Size() int { return len(r.buf) }

// Cursor returns the highest published sequence, -1 before the first
// publish.
func (r *Ring[T]) Cursor() int64 { return r.cursor.Load() }

// Consumer reads every published event, tracked by its own sequence.
type Consumer[T any] struct {
	ring *Ring[T]
	seq  Sequence
}

// NewConsumer registers a consumer. All consumers must be registered before
// the producer publishes the first event.
func (r *Ring[T]) NewConsumer() *Consumer[T] {
	c := &Consumer[T]{ring: r}
	c.seq.Store(-1)
	r.gating = append(r.gating, &c.seq)
	return c
}

// Seq returns the highest sequence this consumer has processed, -1 before
// the first event.
func (c *Consumer[T]) Seq() int64 { return c.seq.Load() }

func (r *Ring[T]) minGating() int64 {
	min := int64(1<<62 - 1)
	for _, s := range r.gating {
		if v := s.Load(); v < min {
			min = v
		}
	}
	return min
}

// Producer claims ring slots for a single publishing goroutine. claimBatch
// slots are claimed from the gating check at a time (Table 1's "claim slots
// in a batch of 256"), amortising the consumer-sequence scan.
type Producer[T any] struct {
	ring       *Ring[T]
	next       int64 // next sequence to publish
	claimedHi  int64 // highest claimed sequence
	claimBatch int64
}

// NewProducer returns the ring's single producer. Only one producer may
// exist per ring (SingleThreadedClaimStrategy).
func (r *Ring[T]) NewProducer(claimBatch int) *Producer[T] {
	if claimBatch < 1 {
		claimBatch = 1
	}
	if claimBatch > len(r.buf) {
		// Claiming past one full ring revolution can never be granted:
		// the gated slots include ones this producer has yet to publish.
		claimBatch = len(r.buf)
	}
	return &Producer[T]{ring: r, next: 0, claimedHi: -1, claimBatch: int64(claimBatch)}
}

// Publish writes one event into the next slot via fill and makes it visible
// to consumers. It blocks while the ring is full (a slow consumer gates the
// producer — the paper's bottleneck discussion for skewed inputs).
func (p *Producer[T]) Publish(fill func(slot *T)) {
	r := p.ring
	if p.next > p.claimedHi {
		// Claim a fresh batch: the slot p.next+claimBatch-1 wraps over
		// sequence p.next+claimBatch-1-size, which consumers must have passed.
		hi := p.next + p.claimBatch - 1
		wrap := hi - int64(len(r.buf))
		if wrap >= 0 {
			r.wait.WaitFor(wrap, r.minGating)
		}
		p.claimedHi = hi
	}
	fill(&r.buf[p.next&r.mask])
	r.cursor.Store(p.next)
	p.next++
	r.wait.Signal()
}

// Consume processes all events published but not yet seen by this consumer,
// calling handle for each; it blocks until at least one event is available.
// It returns false if handle returned false (consumer shutdown), else true.
func (c *Consumer[T]) Consume(handle func(seq int64, v *T) bool) bool {
	r := c.ring
	next := c.seq.Load() + 1
	avail := r.wait.WaitFor(next, r.cursor.Load)
	if r.avail != nil {
		// Multi-producer ring: the cursor covers claimed slots, so clamp to
		// the contiguously published prefix. A claimed slot is unpublished
		// only for the handful of instructions between claim and fill, so a
		// brief yield loop is enough.
		for {
			if h := r.highestPublished(next, avail); h >= next {
				avail = h
				break
			}
			runtime.Gosched()
			avail = r.cursor.Load()
		}
	}
	for s := next; s <= avail; s++ {
		ok := handle(s, &r.buf[s&r.mask])
		c.seq.Store(s)
		if !ok {
			r.wait.Signal()
			return false
		}
	}
	r.wait.Signal() // unblock a producer gated on our sequence
	return true
}

// Run consumes until handle returns false (e.g. on a sentinel event).
func (c *Consumer[T]) Run(handle func(seq int64, v *T) bool) {
	for c.Consume(handle) {
	}
}

// Poll processes the events published but not yet seen by this consumer
// without ever blocking, and returns how many were handled (0 when the ring
// is empty). It is the non-blocking sibling of Consume, for coordinators
// that interleave ring draining with other work.
func (c *Consumer[T]) Poll(handle func(seq int64, v *T) bool) int {
	r := c.ring
	next := c.seq.Load() + 1
	avail := r.highestPublished(next, r.cursor.Load())
	n := 0
	for s := next; s <= avail; s++ {
		ok := handle(s, &r.buf[s&r.mask])
		c.seq.Store(s)
		n++
		if !ok {
			break
		}
	}
	if n > 0 {
		r.wait.Signal() // unblock publishers gated on our sequence
	}
	return n
}

// MultiProducer claims ring slots from many goroutines at once: a fetch-add
// on the ring cursor hands each publisher a distinct sequence, and the
// availability buffer publishes out-of-order fills to consumers — the LMAX
// multi-producer sequencer. Build the ring with NewMultiRing.
type MultiProducer[T any] struct {
	ring *Ring[T]
}

// NewMultiProducer returns a publisher handle that may be shared by any
// number of goroutines. The ring must have been built with NewMultiRing.
func (r *Ring[T]) NewMultiProducer() *MultiProducer[T] {
	if r.avail == nil {
		panic("disruptor: NewMultiProducer requires a NewMultiRing ring")
	}
	return &MultiProducer[T]{ring: r}
}

// Claimed returns the highest sequence claimed by any publisher so far
// (-1 before the first publish). Every sequence at or below it has been or
// is about to be published, so it is the watermark a caller waits on to
// know "everything put before now" has been consumed.
func (p *MultiProducer[T]) Claimed() int64 { return p.ring.cursor.Load() }

// Publish claims the next free slot, writes one event via fill, and makes
// it visible to consumers; it returns the published sequence. Safe for
// concurrent use. It blocks while the ring is full — the backpressure that
// stops unbounded producers from outrunning the consuming side.
func (p *MultiProducer[T]) Publish(fill func(slot *T)) int64 {
	r := p.ring
	seq := r.cursor.Add(1)
	if wrap := seq - int64(len(r.buf)); wrap >= 0 {
		r.wait.WaitFor(wrap, r.minGating)
	}
	fill(&r.buf[seq&r.mask])
	r.avail[seq&r.mask].Store(seq)
	r.wait.Signal()
	return seq
}

// Options mirror the Table 1 tuning parameters.
type Options struct {
	RingSize   int          // "Size of Ring Buffer", default 1024
	ClaimBatch int          // "Claim slots in a batch of 256"
	Consumers  int          // "Total number of Consumer", default 12
	Wait       WaitStrategy // "Wait Strategy", default BlockingWait
}

// Defaults returns the paper's best PvWatts settings (Table 1).
func Defaults() Options {
	return Options{RingSize: 1024, ClaimBatch: 256, Consumers: 12, Wait: &BlockingWait{}}
}

// String renders the options like Table 1.
func (o Options) String() string {
	return fmt.Sprintf("ring=%d batch=%d consumers=%d wait=%s",
		o.RingSize, o.ClaimBatch, o.Consumers, o.Wait.Name())
}
