package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/tuple"
	"github.com/jstar-lang/jstar/internal/wal"
)

// ErrSessionClosed is returned by Session operations after Close, and by
// Quiesce waiters when the session is closed before reaching quiescence.
var ErrSessionClosed = errors.New("jstar: session closed")

// Session is a long-lived, concurrent-safe handle on a running program —
// the engine as an online incremental service rather than a one-shot batch
// evaluator. External tuples enter through Put/PutBatch from any number of
// goroutines: each call appends its batch to one pending list, and the
// coordinator takes the whole list at the next step boundary and puts it
// into the Delta set — so ingestion overlaps rule execution instead of
// waiting for quiescence. The only thing that ever blocks a producer is
// backpressure: a pending list already holding Options.IngressRing tuples.
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

	notify   chan struct{} // coalesced "pending list has data"
	closeCh  chan struct{} // closed by Close: stop at the next boundary
	loopDone chan struct{} // closed when the coordinator loop exits

	closeOnce sync.Once

	// quiesces is the coordinator's quiescent-boundary ordinal, touched
	// only by the coordinator loop.
	quiesces int64

	// Durability tier (Options.Durability); wal is nil when off. The
	// coordinator tees absorbed tuples into the log, replays walTail after
	// seeding, and checkpoints at quiescent boundaries. lastCkptQuiesce
	// drives the automatic cadence.
	wal             *wal.Log
	walTail         []*tuple.Tuple
	recovery        *RecoveryInfo
	ckptEvery       int
	lastCkptQuiesce int64

	// spare is the cleared list absorb swaps in for pending; only the
	// coordinator touches it.
	spare []*tuple.Tuple

	mu        sync.Mutex
	pending   []*tuple.Tuple // accepted external tuples, in acceptance order
	accepted  int64          // tuples ever accepted into pending
	room      sync.Cond      // on mu; broadcast when pending drains or the session ends
	quiescent bool           // loop is parked with Delta and pending drained
	consumed  int64          // absorbed at last quiescence
	qSteps    int64          // RunStats.Steps at last quiescence
	qFanned   int64          // RunStats.FannedSteps at last quiescence
	qGen      chan struct{}  // closed and replaced at each quiescence
	ckptQ     []*checkpointRequest
	err       error // first terminal failure
	closed    bool
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

// startSession starts the coordinator loop on a prepared run. It is the
// engine behind Program.Start and the Execute/ExecuteEvents compatibility
// wrappers.
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
	s.room.L = &s.mu
	r.stats.ShardAbsorbed = make([]int64, 1)
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

// loop is the session coordinator: it owns the step loop's Drain, absorbs
// ingress events at step boundaries (sessionHost), and parks at quiescence
// until new events, cancellation, or Close arrive. Drain is re-entered
// after every wake-up — the resumable-drain contract of exec.Loop.
func (s *Session) loop() {
	// A producer waiting for room must not outlive the ctx that bounds the
	// session, even while the coordinator is busy inside a rule body.
	stop := context.AfterFunc(s.ctx, s.wakeProducers)
	defer func() {
		stop()
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
		// Quiescent boundary: the Delta set and pending list are drained and
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
			// turned into a failure. Pending input means dropped events:
			// that is the failure the ctx error reports. The gate closes
			// under the same lock as the pending check, so a racing PutBatch
			// either appended before it (we fail loudly) or sees the flag
			// (the producer gets ErrSessionClosed) — an acknowledged Put is
			// never dropped silently.
			s.mu.Lock()
			s.closed = true
			dropped := len(s.pending) > 0
			s.mu.Unlock()
			if dropped {
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

// wakeProducers releases every PutBatch waiting for room to re-check the
// pending list and the session state.
func (s *Session) wakeProducers() {
	s.mu.Lock()
	s.room.Broadcast()
	s.mu.Unlock()
}

// wakeWaiters wakes Quiesce waiters to re-check the session state.
func (s *Session) wakeWaiters() {
	s.mu.Lock()
	close(s.qGen)
	s.qGen = make(chan struct{})
	s.mu.Unlock()
}

// absorb takes the whole pending list — swapping in the cleared spare, so
// producers waiting for room go on at once — and puts every tuple on the
// coordinator's slot, in acceptance order: the step boundary seals them as
// one run. Returns how many were absorbed; only the coordinator loop calls
// it.
func (s *Session) absorb() int {
	s.mu.Lock()
	batch := s.pending
	if len(batch) == 0 {
		s.mu.Unlock()
		return 0
	}
	s.pending = s.spare
	s.room.Broadcast()
	s.mu.Unlock()
	for _, t := range batch {
		s.run.put("event", nil, t, 0)
	}
	// The WAL tee: everything absorbed this pass becomes one batch record
	// in the pending group. This is an encode, not a sync — the group
	// commits by size or deadline, off the producers' path entirely.
	if s.wal != nil {
		s.teeWAL(batch)
	}
	s.run.stats.ShardAbsorbed[0] += int64(len(batch))
	clear(batch)
	s.spare = batch[:0]
	return len(batch)
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
	s.room.Broadcast()
	s.mu.Unlock()
}

// markQuiescent records that the Delta set and pending list were both
// drained, snapshots how far ingestion has been absorbed, bumps the
// change generation of every table whose Gamma state changed since the
// previous quiescence, and wakes Quiesce/WaitChange waiters.
func (s *Session) markQuiescent() {
	s.run.foldDirty()
	s.mu.Lock()
	s.quiescent = true
	s.consumed = s.run.stats.ShardAbsorbed[0]
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
	return s.terminal()
}

// terminal is gate with mu held.
func (s *Session) terminal() error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return ErrSessionClosed
	}
	return nil
}

// Put injects one external tuple; see PutBatch.
func (s *Session) Put(t *tuple.Tuple) error { return s.PutBatch(t) }

// PutBatch injects external tuples. It never waits for quiescence: the
// batch is appended whole to the session's pending list and the call
// returns, so ingestion from application goroutines overlaps rule
// execution. It blocks only while the list already holds
// Options.IngressRing tuples (backpressure), until the coordinator takes
// the list at a step boundary or the session closes, fails or has its ctx
// cancelled. It errors if a tuple's table was not declared on this program
// or the session is closed or failed. The list keeps copies of the tuple
// pointers, so the caller may reuse ts at once. A batch is an ingestion
// convenience, not a causal unit: tuples still settle per their own causal
// keys.
func (s *Session) PutBatch(ts ...*tuple.Tuple) error {
	for _, t := range ts {
		if t == nil {
			return fmt.Errorf("jstar: Put of nil tuple")
		}
		if s.run.tableStats(t.Schema()) == nil {
			return fmt.Errorf("jstar: Put of tuple from table %s not declared on this program", t.Schema().Name)
		}
	}
	s.mu.Lock()
	for {
		if err := s.terminal(); err != nil {
			s.mu.Unlock()
			return err
		}
		if len(s.pending) < s.run.opts.ingressRing() {
			break
		}
		if err := s.ctx.Err(); err != nil {
			s.mu.Unlock()
			return err
		}
		s.room.Wait()
	}
	s.pending = append(s.pending, ts...)
	s.accepted += int64(len(ts))
	s.mu.Unlock()
	// One wake-up per batch; the send is non-blocking (a pending token
	// already guarantees the coordinator looks again).
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return nil
}

// Quiesce blocks until the database has drained to quiescence and every
// tuple put before the call has been absorbed, or until ctx is done. It
// returns nil at quiescence, ctx's error on cancellation/deadline, and the
// session's terminal error if it failed or was closed first. Multiple
// goroutines may Quiesce concurrently.
func (s *Session) Quiesce(ctx context.Context) error {
	// The pending list is absorbed in acceptance order, so everything put
	// before the call is in once a quiescent boundary has absorbed as many
	// tuples as had been accepted when it was made.
	s.mu.Lock()
	target := s.accepted
	for {
		if err := s.terminal(); err != nil {
			s.mu.Unlock()
			return err
		}
		if s.quiescent && s.consumed >= target {
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
		s.mu.Lock()
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

// IngressBacklog reports how many accepted external tuples the coordinator
// has not yet absorbed, and the bound at which producers start to wait
// (Options.IngressRing) — the signal admission controllers use to shed
// load before producers block on backpressure.
func (s *Session) IngressBacklog() (pending int64, capacity int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.pending)), s.run.opts.ingressRing()
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
		s.room.Broadcast()
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
// Absorbed tuples enter the coordinator's put buffer and are flushed into
// the Delta tree before the next extraction, so an
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
	// A failed run absorbs nothing more: producers waiting for room get the
	// failure, not an acceptance the session can no longer honour.
	if err := s.run.loadFail(); err != nil {
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
