package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/jstar-lang/jstar/internal/disruptor"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/tuple"
	"github.com/jstar-lang/jstar/internal/wal"
)

// ErrSessionClosed is returned by Session operations after Close, and by
// Quiesce waiters when the session is closed before reaching quiescence.
var ErrSessionClosed = errors.New("jstar: session closed")

// ingressEvent is one slot of the Session ingress ring: a single external
// tuple. Slots are recycled across ring revolutions; absorb clears the
// reference once the tuple has entered the Delta set so the ring never
// pins dead tuples.
type ingressEvent struct {
	t *tuple.Tuple
}

// Session is a long-lived, concurrent-safe handle on a running program —
// the engine as an online incremental service rather than a one-shot batch
// evaluator. External tuples enter through Put/PutBatch from any number of
// goroutines: they are published into a sharded multi-producer Disruptor
// ingress (Options.IngressShards lanes, spread by publisher affinity) and
// absorbed into the Delta set by the coordinator at step boundaries — each
// lane draining into its own put-buffer slot — so ingestion overlaps rule
// execution instead of waiting for quiescence. The only thing that ever
// blocks a producer is ring backpressure (a full ingress lane; total
// capacity Options.IngressRing).
//
// The lifecycle is Start → Put/PutBatch ⇄ Quiesce → Close:
//
//   - Program.Start seeds the initial puts and begins draining on a
//     background coordinator goroutine.
//   - Put/PutBatch inject external tuples; the program's rules fire on
//     them as their causal equivalence classes become minimal, exactly as
//     if they had been initial puts (§3's event-driven mode).
//   - Quiesce blocks until every tuple put before the call has been
//     absorbed and the database has drained to quiescence.
//   - Query/Snapshot/Stats read the Gamma state; call them at quiescence
//     for point-in-time-consistent results.
//   - Close releases the run's pool and its goroutines. A drain still in
//     flight is aborted at the next step boundary; call Quiesce first for
//     a graceful shutdown.
//
// The ctx given to Start bounds the whole session: cancellation or
// deadline expiry is checked at every step boundary, so even a
// non-terminating program (the unconditioned Ship rule of §3) is stopped
// without resorting to Options.MaxSteps. After a failure — rule panic,
// MaxSteps, ctx cancellation — the session is terminal: Put, Quiesce and
// Close all report the first error.
type Session struct {
	run   *Run
	ctx   context.Context
	start time.Time

	// ing is built lazily on the first Put, so the one-shot Execute
	// wrapper (which never Puts) pays no ring allocation.
	ing atomic.Pointer[ingress]

	notify   chan struct{} // coalesced "ingress ring has data"
	closeCh  chan struct{} // closed by Close: stop at the next boundary
	loopDone chan struct{} // closed when the coordinator loop exits

	closeOnce sync.Once

	// quiesces is the coordinator's quiescent-boundary ordinal, touched
	// only by the coordinator loop.
	quiesces int64

	// Durability tier (Options.Durability); wal is nil when off. The
	// coordinator tees absorbed tuples into the log, replays walTail after
	// seeding, and checkpoints at quiescent boundaries; walBatch is its
	// per-absorb scratch. lastCkptQuiesce drives the automatic cadence.
	wal             *wal.Log
	walTail         []*tuple.Tuple
	walBatch        []*tuple.Tuple
	recovery        *RecoveryInfo
	ckptEvery       int
	lastCkptQuiesce int64

	mu        sync.Mutex
	quiescent bool          // loop is parked with Delta and ring drained
	consumed  []int64       // per-shard sequence absorbed at last quiescence
	qSteps    int64         // RunStats.Steps at last quiescence
	qFanned   int64         // RunStats.FannedSteps at last quiescence
	qGen      chan struct{} // closed and replaced at each quiescence
	ckptQ     []*checkpointRequest
	err       error // first terminal failure
	closed    bool
}

// ingress wraps the sharded external-tuple rings: publishers spread across
// lanes by affinity, the coordinator drains each lane separately.
type ingress struct {
	ring *disruptor.ShardedRing[ingressEvent]
}

// Start validates opts, seeds the program's initial puts and begins
// executing on a background coordinator goroutine, returning the live
// Session handle. ctx bounds the session: when it is cancelled or its
// deadline passes, execution stops at the next step boundary and the
// session becomes terminal with ctx's error.
func (p *Program) Start(ctx context.Context, opts Options) (*Session, error) {
	r, err := p.NewRun(opts)
	if err != nil {
		return nil, err
	}
	return r.startSession(ctx)
}

// startSession builds the ingress ring and coordinator loop on a prepared
// run. It is the engine behind Program.Start and the Execute/ExecuteEvents
// compatibility wrappers.
func (r *Run) startSession(ctx context.Context) (*Session, error) {
	if !r.started.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("jstar: run already started")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Session{
		run:      r,
		ctx:      ctx,
		start:    time.Now(),
		notify:   make(chan struct{}, 1),
		closeCh:  make(chan struct{}),
		loopDone: make(chan struct{}),
		qGen:     make(chan struct{}),
	}
	if d := r.opts.Durability; d != nil {
		// Open (or recover) the log before the loop exists: checkpoint rows
		// are bulk-restored into the still-single-owned Gamma database, and
		// the WAL tail is parked for the loop to replay after seeding.
		if err := s.openWAL(d); err != nil {
			r.finish(s.start)
			return nil, err
		}
	}
	go s.loop()
	return s, nil
}

// initIngress builds the ingress ring on first use. Creation is fenced by
// mu against the terminal transitions: once the session has failed or been
// closed no new ring can appear, so the coordinator's shutdown Release
// cannot miss one and leave a publisher gated forever.
func (s *Session) initIngress() (*ingress, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ing := s.ing.Load(); ing != nil {
		return ing, nil
	}
	if s.err != nil {
		return nil, s.err
	}
	if s.closed {
		return nil, ErrSessionClosed
	}
	shards := s.run.ingressShards()
	size := s.run.opts.ingressRing() / shards
	if size < 2 {
		size = 2
	}
	ring := disruptor.NewShardedRing[ingressEvent](shards, size,
		func() disruptor.WaitStrategy { return &disruptor.BlockingWait{} })
	// Publish the shard accounting before the atomic pointer store: the
	// coordinator (and any post-quiescence Stats reader) reaches these
	// fields only after loading the pointer.
	s.run.stats.IngressShards = shards
	s.run.stats.ShardAbsorbed = make([]int64, shards)
	ing := &ingress{ring: ring}
	s.ing.Store(ing)
	return ing, nil
}

// loop is the session coordinator: it owns the step loop's Drain, absorbs
// ingress events at step boundaries (sessionHost), and parks at quiescence
// until new events, cancellation, or Close arrive. Drain is re-entered
// after every wake-up — the resumable-drain contract of exec.Loop.
func (s *Session) loop() {
	defer func() {
		// Un-gate producers blocked on a full ring; their tuples land in
		// slots that are never read again, and Put reports the terminal
		// state to them. The terminal flag (err/closed) is already set
		// under mu at this point, so initIngress cannot create a ring this
		// Release would miss.
		if ing := s.ing.Load(); ing != nil {
			ing.ring.Release()
		}
		// Every exit path records the terminal state (err or closed) before
		// returning, so requests queued after this drain are rejected at
		// enqueue — none are stranded without an answer.
		s.failCheckpoints()
		close(s.loopDone)
	}()
	// Rule-body panics are contained by the engine (invokeGroup), but
	// seed-time puts and external actions run bare on this goroutine; a
	// panic here must become a session failure, not a process crash — the
	// containment Execute callers had when the drain ran on their own
	// goroutine.
	defer func() {
		if p := recover(); p != nil {
			s.fail(fmt.Errorf("jstar: session coordinator panicked: %v", p))
		}
	}()
	s.run.seed()
	// Recovered WAL tail: refire the crashed run's absorbed-but-not-
	// checkpointed input through the ordinary put path. The engine's
	// determinism takes it to the same fixpoint; the first Drain below
	// settles it together with the seeds.
	s.replayTail()
	for {
		if err := s.run.loop.Drain(sessionHost{s}); err != nil {
			if !errors.Is(err, ErrSessionClosed) {
				s.fail(err)
			}
			return
		}
		// Quiescent boundary: the Delta set and ingress ring are drained and
		// no rule is in flight, so the coordinator owns every store.
		s.quiesces++
		// Checkpoints happen here and only here: the Gamma state is the
		// fixpoint of exactly the absorbed (and teed) input prefix, so the
		// durable watermark advances only at quiesced boundaries.
		s.maybeCheckpoint()
		s.markQuiescent()
		select {
		case <-s.notify:
		case <-s.ctx.Done():
			// Cancellation caught the session parked at a fixpoint. With
			// no unabsorbed input nothing is lost — a clean shutdown, so
			// a Quiesce that already returned success is not retroactively
			// turned into a failure. Pending ingress means dropped events:
			// that is the failure the ctx error reports. The gate closes
			// before the pending check: a racing PutBatch either published
			// before our check (we see it and fail loudly) or runs its
			// post-publish gate after the flag (the producer gets
			// ErrSessionClosed) — an acknowledged Put is never dropped
			// silently.
			s.mu.Lock()
			s.closed = true
			s.mu.Unlock()
			if s.pendingIngress() {
				s.fail(s.ctx.Err())
			} else {
				s.wakeWaiters()
			}
			return
		case <-s.closeCh:
			return
		}
	}
}

// pendingIngress reports whether published external tuples have not yet
// been absorbed.
func (s *Session) pendingIngress() bool {
	ing := s.ing.Load()
	return ing != nil && ing.ring.Pending()
}

// wakeWaiters wakes Quiesce waiters to re-check the session state.
func (s *Session) wakeWaiters() {
	s.mu.Lock()
	close(s.qGen)
	s.qGen = make(chan struct{})
	s.mu.Unlock()
}

// absorb moves every pending ingress event into the engine via the
// coordinator's put path, lane i draining into put-buffer slot i (mod the
// slot count) — so absorbed events reach the step boundary already spread
// across the slots, one sorted run per lane, instead of piling into slot 0.
// Returns how many were absorbed; only the coordinator loop calls it.
func (s *Session) absorb() int {
	ing := s.ing.Load()
	if ing == nil {
		return 0
	}
	slots := len(s.run.slots)
	tee := s.wal != nil
	total := 0
	for shard := 0; shard < ing.ring.Shards(); shard++ {
		slot := shard % slots
		n := ing.ring.Poll(shard, func(_ int64, ev *ingressEvent) bool {
			t := ev.t
			ev.t = nil
			if tee {
				s.walBatch = append(s.walBatch, t)
			}
			s.run.put("event", nil, t, slot)
			return true
		})
		if n > 0 {
			s.run.stats.ShardAbsorbed[shard] += int64(n)
			total += n
		}
	}
	// The WAL tee: everything absorbed this pass becomes one batch record
	// in the pending group. This is an encode, not a sync — the group
	// commits by size or deadline, off the producers' path entirely.
	if tee && len(s.walBatch) > 0 {
		s.teeWAL(s.walBatch)
		clear(s.walBatch)
		s.walBatch = s.walBatch[:0]
	}
	return total
}

// fail records the session's first terminal error and wakes every waiter.
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.quiescent = false
	close(s.qGen)
	s.qGen = make(chan struct{})
	s.mu.Unlock()
}

// markQuiescent records that the Delta set and ingress ring were both
// drained, snapshots how far ingestion has been absorbed, bumps the
// change generation of every table whose Gamma state changed since the
// previous quiescence, and wakes Quiesce/WaitChange waiters.
func (s *Session) markQuiescent() {
	s.run.foldDirty()
	s.mu.Lock()
	s.quiescent = true
	if ing := s.ing.Load(); ing != nil {
		s.consumed = s.consumed[:0]
		for i := 0; i < ing.ring.Shards(); i++ {
			s.consumed = append(s.consumed, ing.ring.ConsumedSeq(i))
		}
	}
	s.run.stats.Elapsed = time.Since(s.start)
	s.qSteps, s.qFanned = s.run.stats.Steps, s.run.stats.FannedSteps
	close(s.qGen)
	s.qGen = make(chan struct{})
	s.mu.Unlock()
}

// QuiescedSteps returns the number of execution steps the session had run
// at its most recent quiescent boundary, and how many of them the executor
// fanned out over the workers. Unlike Stats().Steps and FannedSteps, which
// the coordinator writes while it executes, they are safe to read at any
// time — in particular right after Quiesce returns, when another
// producer's put may already have restarted the step loop.
func (s *Session) QuiescedSteps() (steps, fanned int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.qSteps, s.qFanned
}

// gate reports the session's terminal state, if any.
func (s *Session) gate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return ErrSessionClosed
	}
	return nil
}

// Put injects one external tuple. It never waits for quiescence — the
// tuple is published into the ingress ring and the call returns, so
// ingestion from application goroutines overlaps rule execution. Put
// blocks only when the ingress ring is full (backpressure) and errors if
// the tuple's table was not declared on this program or the session is
// closed or failed.
func (s *Session) Put(t *tuple.Tuple) error { return s.PutBatch(t) }

// PutBatch injects external tuples, claiming one ring slot per tuple; it
// shares Put's non-blocking contract. A batch is an ingestion convenience,
// not a causal unit: tuples still settle per their own causal keys.
func (s *Session) PutBatch(ts ...*tuple.Tuple) error {
	if err := s.gate(); err != nil {
		return err
	}
	for _, t := range ts {
		if t == nil {
			return fmt.Errorf("jstar: Put of nil tuple")
		}
		if s.run.tableStats(t.Schema()) == nil {
			return fmt.Errorf("jstar: Put of tuple from table %s not declared on this program", t.Schema().Name)
		}
	}
	ing := s.ing.Load()
	if ing == nil {
		var err error
		if ing, err = s.initIngress(); err != nil {
			return err
		}
	}
	for _, t := range ts {
		t := t
		ing.ring.Publish(func(ev *ingressEvent) { ev.t = t })
		// Wake the coordinator per publish, not once per batch: a batch
		// larger than the ring's free capacity would otherwise gate this
		// publisher before the wake-up was ever sent, with the coordinator
		// parked — a deadlock. The send is non-blocking (a pending token
		// already guarantees a re-poll).
		select {
		case s.notify <- struct{}{}:
		default:
		}
	}
	// The loop may have shut down while we were gated on a full ring; in
	// that case the published tuples will never be absorbed — report it.
	return s.gate()
}

// Quiesce blocks until the database has drained to quiescence and every
// tuple put before the call has been absorbed, or until ctx is done. It
// returns nil at quiescence, ctx's error on cancellation/deadline, and the
// session's terminal error if it failed or was closed first. Multiple
// goroutines may Quiesce concurrently.
func (s *Session) Quiesce(ctx context.Context) error {
	// The watermark is a vector: the highest claimed sequence per ingress
	// shard at call time. Quiescence with every shard's absorbed sequence
	// at or past its watermark means everything put before the call is in.
	var target []int64
	if ing := s.ing.Load(); ing != nil {
		target = ing.ring.ClaimedSnapshot(nil)
	}
	covered := func() bool {
		for i, w := range target {
			if w < 0 {
				continue // nothing ever claimed on this shard
			}
			if i >= len(s.consumed) || s.consumed[i] < w {
				return false
			}
		}
		return true
	}
	for {
		s.mu.Lock()
		if s.err != nil {
			err := s.err
			s.mu.Unlock()
			return err
		}
		if s.closed {
			s.mu.Unlock()
			return ErrSessionClosed
		}
		if s.quiescent && covered() {
			s.mu.Unlock()
			return nil
		}
		ch := s.qGen
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		case <-s.loopDone:
			if err := s.gate(); err != nil {
				return err
			}
			return ErrSessionClosed
		}
	}
}

// Query visits the tuples of table sch matching q, like Ctx.ForEach but
// from outside the rule system — the read surface of the online service.
// Results are point-in-time consistent when the session is quiesced;
// during execution the stores are weakly consistent (reads are safe but
// may interleave with inserts, like the Java concurrent collections).
// The prefix's matches are collected before q.Where and fn see the first
// of them, so no store lock is held while they run: fn may Put and
// Quiesce, which waits on the coordinator's inserts.
func (s *Session) Query(sch *tuple.Schema, q gamma.Query, fn func(*tuple.Tuple) bool) {
	if st := s.run.tableStats(sch); st != nil {
		st.noteQuery(len(q.Prefix))
	}
	var found []*tuple.Tuple
	s.run.gammaDB.Table(sch).Select(gamma.Query{Prefix: q.Prefix}, func(t *tuple.Tuple) bool {
		found = append(found, t)
		return true
	})
	for _, t := range found {
		if (q.Where == nil || q.Where(t)) && !fn(t) {
			return
		}
	}
}

// Snapshot returns a copy of table sch's current contents in store order.
// Call it at quiescence for a consistent snapshot.
func (s *Session) Snapshot(sch *tuple.Schema) []*tuple.Tuple {
	store := s.run.gammaDB.Table(sch)
	out := make([]*tuple.Tuple, 0, store.Len())
	store.Scan(func(t *tuple.Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// TableVersion returns table's current quiesced-change generation: a
// counter incremented at each quiescent boundary where the table's Gamma
// contents changed (see RunStats.TableVersions). It errors on unknown
// tables. Safe to call at any time; the value only moves at quiescent
// boundaries, so it always names a quiesced state.
func (s *Session) TableVersion(table string) (int64, error) {
	sch := s.run.prog.tables[table]
	if sch == nil {
		return 0, fmt.Errorf("jstar: table version %s: unknown table (declared: %s)", table, s.run.prog.knownTables())
	}
	return s.run.versionByID[sch.ID()].Load(), nil
}

// WaitChange blocks until table's quiesced-change generation exceeds
// since, returning the new generation — the primitive behind query
// subscriptions: a subscriber records the generation at registration and
// re-queries each time WaitChange returns. It returns ctx's error on
// cancellation/deadline and the session's terminal error if it fails or
// closes first; generations are never skipped silently (a return of g
// covers every change up to g, so a subscriber polling since=g misses
// nothing and is never woken for a phantom change). Tables in
// Options.NoGamma have no queryable state and never change.
func (s *Session) WaitChange(ctx context.Context, table string, since int64) (int64, error) {
	sch := s.run.prog.tables[table]
	if sch == nil {
		return 0, fmt.Errorf("jstar: wait change %s: unknown table (declared: %s)", table, s.run.prog.knownTables())
	}
	v := s.run.versionByID[sch.ID()]
	for {
		if cur := v.Load(); cur > since {
			return cur, nil
		}
		s.mu.Lock()
		if s.err != nil {
			err := s.err
			s.mu.Unlock()
			return v.Load(), err
		}
		if s.closed {
			s.mu.Unlock()
			return v.Load(), ErrSessionClosed
		}
		ch := s.qGen
		s.mu.Unlock()
		// Re-check after arming: the coordinator bumps generations before
		// closing qGen, so a bump between the first load and here is
		// caught either by this load or by the channel close.
		if cur := v.Load(); cur > since {
			return cur, nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return v.Load(), ctx.Err()
		case <-s.loopDone:
			if err := s.gate(); err != nil {
				return v.Load(), err
			}
			return v.Load(), ErrSessionClosed
		}
	}
}

// TrackPrefixes arms per-prefix change tracking: from the next step on,
// the engine records which leading-column hash buckets (PrefixBucket over
// a tuple's first field) changed each quiescent window, and PrefixVersion
// reports per-bucket generations. Tracking costs one hash per kept tuple,
// so it stays off until the first prefix-filtered subscriber arms it.
// Arming is idempotent and safe from any goroutine.
func (s *Session) TrackPrefixes() { s.run.prefixTrack.Store(true) }

// PrefixVersion returns table's quiesced-change generation restricted to
// one prefix bucket: the table-wide generation (TableVersion) at the last
// quiescent boundary where a kept tuple hashed into that bucket. A
// subscriber filtering on a key prefix waits on WaitChange and then skips
// wakeups whose PrefixVersion for its bucket has not passed its watermark.
// The tracking is conservative — windows that changed before TrackPrefixes
// was armed, or whose dirty mask was lost, promote every bucket — so a
// filtered subscriber may see a spurious wakeup but never misses a change.
func (s *Session) PrefixVersion(table string, bucket int) (int64, error) {
	sch := s.run.prog.tables[table]
	if sch == nil {
		return 0, fmt.Errorf("jstar: prefix version %s: unknown table (declared: %s)", table, s.run.prog.knownTables())
	}
	if bucket < 0 || bucket >= prefixBuckets {
		return 0, fmt.Errorf("jstar: prefix version %s: bucket %d out of range [0,%d)", table, bucket, prefixBuckets)
	}
	return s.run.prefixVerByID[sch.ID()][bucket].Load(), nil
}

// IngressBacklog reports how many published external tuples have not yet
// been absorbed by the coordinator, and the ingress ring's total capacity
// — the signal admission controllers use to shed load before producers
// block on ring backpressure. Before the first Put (no ring yet) the
// backlog is zero and the capacity is the configured Options.IngressRing.
func (s *Session) IngressBacklog() (pending int64, capacity int) {
	ing := s.ing.Load()
	if ing == nil {
		return 0, s.run.opts.ingressRing()
	}
	return ing.ring.PendingCount(), ing.ring.Capacity()
}

// Stats returns the run statistics. Read them only at quiescence (after
// Quiesce returns nil, or after Close): several RunStats fields (Steps,
// Elapsed, TotalLive, MaxBatch) are plain values written by the
// coordinator, so reading them mid-drain is a data race. The atomic
// per-table counters are safe to read at any time.
func (s *Session) Stats() *RunStats { return s.run.Stats() }

// Run exposes the underlying run (Gamma, Output, StrategyName, …) for
// post-quiescence inspection — the same object Execute returns.
func (s *Session) Run() *Run { return s.run }

// Err returns the session's terminal error, or nil while it is healthy.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close stops the session and releases the scheduling pool. A drain in
// flight is aborted at the next step boundary — Quiesce first for a
// graceful shutdown. Close is idempotent; it returns the session's terminal
// error, if any, so one-shot callers can Close and check a single error.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		close(s.closeCh)
		<-s.loopDone
		// Flush and fsync the WAL tail before returning: everything the
		// coordinator absorbed (and therefore teed) is durable once Close
		// returns, and the final segment is sealed into the hash chain. The
		// durable watermark (checkpoint) is NOT advanced here — that only
		// happens at quiescent boundaries, so a close racing in-flight puts
		// can never claim coverage of a non-quiesced state.
		if s.wal != nil {
			if err := s.wal.Close(); err != nil {
				s.fail(err)
			}
		}
		s.run.finish(s.start)
	})
	return s.Err()
}

// sessionHost adapts the session to the exec.Host contract: it is runHost
// plus ingress absorption and context/close checks at each step boundary.
// Absorbed tuples enter the put buffers (one slot per ingress shard) and
// are flushed into the Delta tree before the next extraction, so an
// external event becomes visible exactly at a step boundary — the same
// visibility rule as rule puts.
type sessionHost struct{ s *Session }

func (h sessionHost) NextBatch() ([]*tuple.Tuple, error) {
	s := h.s
	select {
	case <-s.closeCh:
		return nil, ErrSessionClosed
	default:
	}
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	if s.absorb() > 0 {
		s.run.endStep()
	}
	return s.run.nextBatch()
}

func (h sessionHost) BeginStep(b []*tuple.Tuple) []*tuple.Tuple { return h.s.run.beginStep(b) }
func (h sessionHost) FireBatch(ts []*tuple.Tuple, slot int)     { h.s.run.fireBatch(ts, slot) }
func (h sessionHost) Now() int64                                { return h.s.run.now() }
func (h sessionHost) FanOut()                                   { h.s.run.stats.FannedSteps++ }
func (h sessionHost) SealSlot(slot int)                         { h.s.run.sealSlot(slot) }
func (h sessionHost) EndStep()                                  { h.s.run.endStep() }
func (h sessionHost) Err() error                                { return h.s.run.loadFail() }
