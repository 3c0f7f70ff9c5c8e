package core

import (
	"context"
	"fmt"
	"time"

	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/tuple"
	"github.com/jstar-lang/jstar/internal/wal"
)

// DurabilityOptions turns a session durable: every external tuple the
// coordinator absorbs from the pending ingress list is teed into a
// segmented write-ahead log (group-committed off the hot path), Gamma is
// checkpointed at quiescent boundaries, and a session started over an
// existing log directory recovers — newest valid checkpoint restored,
// WAL tail replayed through the ordinary put path to the same fixpoint.
//
// The tee sits at absorb time, not in Put: producers never wait on the
// log, and each absorb appends the list it took as one batch record, in
// acceptance order. The durable sequence is exactly the absorption order,
// so a checkpoint taken at a quiescent boundary covers a well-defined
// prefix of the input. The durable watermark (the newest checkpoint's sequence)
// therefore only ever advances at a quiesced boundary — a session that
// dies mid-drain leaves the watermark at its last quiescence.
type DurabilityOptions struct {
	// Dir is the log directory. Ignored when FS is set.
	Dir string
	// FS overrides the file layer — the crash-fault suite injects
	// wal.FaultFS here; production leaves it nil and uses Dir.
	FS wal.FS
	// Identity names the tenant/program in segment headers and
	// checkpoints; recovery refuses a directory written under a different
	// identity. Empty means "jstar".
	Identity string
	// GroupBytes / GroupInterval / SegmentBytes tune the log's group
	// commit and rotation; zero values take wal.Options defaults
	// (64 KiB, 2ms, 4 MiB).
	GroupBytes    int
	GroupInterval time.Duration
	SegmentBytes  int64
	// CheckpointEvery writes a Gamma checkpoint every N quiescent
	// boundaries that durably absorbed new input. 0 disables automatic
	// checkpoints; Session.Checkpoint still works on demand.
	CheckpointEvery int
}

func (d *DurabilityOptions) validate() []string {
	var errs []string
	if d.Dir == "" && d.FS == nil {
		errs = append(errs, "Durability: one of Dir or FS is required")
	}
	if d.GroupBytes < 0 {
		errs = append(errs, fmt.Sprintf("Durability.GroupBytes: %d is negative", d.GroupBytes))
	}
	if d.GroupInterval < 0 {
		errs = append(errs, fmt.Sprintf("Durability.GroupInterval: %v is negative", d.GroupInterval))
	}
	if d.SegmentBytes < 0 {
		errs = append(errs, fmt.Sprintf("Durability.SegmentBytes: %d is negative", d.SegmentBytes))
	}
	if d.CheckpointEvery < 0 {
		errs = append(errs, fmt.Sprintf("Durability.CheckpointEvery: %d is negative (0 disables automatic checkpoints)", d.CheckpointEvery))
	}
	return errs
}

func (d *DurabilityOptions) identity() string {
	if d.Identity == "" {
		return "jstar"
	}
	return d.Identity
}

// RecoveryInfo describes what Start found in an existing log directory.
type RecoveryInfo struct {
	// CheckpointSeq is the restored checkpoint's covered sequence (0 if
	// the directory had no usable checkpoint).
	CheckpointSeq uint64
	// CheckpointTables / CheckpointTuples count what the checkpoint
	// restored directly into Gamma.
	CheckpointTables int
	CheckpointTuples int
	// Replayed counts WAL-tail tuples re-put through the engine.
	Replayed int
	// DurableSeq is the input prefix the recovered state covers.
	DurableSeq uint64
	// TruncatedBytes counts benign torn-tail bytes cut during recovery.
	TruncatedBytes int64
}

// CheckpointInfo describes one written checkpoint.
type CheckpointInfo struct {
	// Seq is the input sequence the checkpoint covers — the durable
	// watermark after this write.
	Seq     uint64
	Tables  int
	Tuples  int
	Elapsed time.Duration
}

// checkpointRequest is one queued Session.Checkpoint call, served by the
// coordinator at a quiescent boundary and answered on done.
type checkpointRequest struct {
	done chan checkpointResult // buffered(1)
}

type checkpointResult struct {
	info *CheckpointInfo
	err  error
}

// openWAL opens (or recovers) the session's log before the coordinator
// loop starts: checkpoint rows are bulk-restored into Gamma — safe, the
// database is untouched and single-owned here — and the WAL tail is
// parked for the loop to replay after seeding.
func (s *Session) openWAL(d *DurabilityOptions) error {
	fs := d.FS
	if fs == nil {
		fs = wal.DirFS(d.Dir)
	}
	r := s.run
	log, rec, err := wal.Open(wal.Options{
		FS:            fs,
		Identity:      d.identity(),
		GroupBytes:    d.GroupBytes,
		GroupInterval: d.GroupInterval,
		SegmentBytes:  d.SegmentBytes,
		Resolve:       func(table string) *tuple.Schema { return r.prog.tables[table] },
		// A failed group commit (dying disk) is a terminal session failure:
		// better a loud stop than an engine acking puts it cannot keep.
		OnError: func(err error) { s.fail(err) },
	})
	if err != nil {
		return err
	}
	s.wal = log
	s.ckptEvery = d.CheckpointEvery
	info := &RecoveryInfo{
		DurableSeq:     rec.DurableSeq,
		TruncatedBytes: rec.TruncatedBytes,
		Replayed:       len(rec.Tail),
	}
	if ck := rec.Checkpoint; ck != nil {
		info.CheckpointSeq = ck.Seq
		info.CheckpointTables = len(ck.Tables)
		for _, tb := range ck.Tables {
			sch := r.prog.tables[tb.Name]
			r.gammaDB.Restore(sch, tb.Rows)
			info.CheckpointTuples += len(tb.Rows)
			// Restored rows count as a change: the first quiescent boundary
			// bumps the table's generation so subscribers re-read.
			if id := int(sch.ID()); id < len(r.dirtyByID) {
				r.dirtyByID[id].Store(true)
			}
		}
	}
	s.walTail = rec.Tail
	if rec.DurableSeq > 0 || rec.TruncatedBytes > 0 {
		s.recovery = info
	}
	return nil
}

// replayTail re-puts the recovered WAL tail through the ordinary put path
// on the coordinator slot — rules refire and, by the engine's determinism,
// reach the same fixpoint the pre-crash run had. Tuples the restored
// checkpoint already covers were filtered out by recovery; tuples it
// derived dedup at Gamma insert. Coordinator only, after seed().
func (s *Session) replayTail() {
	if len(s.walTail) == 0 {
		return
	}
	event := s.run.prog.pseudoRule("event")
	for _, t := range s.walTail {
		s.run.put(event, nil, t, 0)
	}
	s.run.endStep()
	s.walTail = nil
}

// teeWAL appends the pending list just absorbed to the log as one batch
// record. Group commit means this is an encode into the pending group, not a
// sync; an append on a dead log fails the session (no silent gaps between
// the engine's state and its journal).
func (s *Session) teeWAL(ts []*tuple.Tuple) {
	if len(ts) == 0 {
		return
	}
	if err := s.wal.Append(ts); err != nil {
		s.fail(err)
	}
}

// Recovery returns what Start recovered from the WAL directory, or nil
// for a fresh (or non-durable) session.
func (s *Session) Recovery() *RecoveryInfo { return s.recovery }

// WALStats returns the log's counters; ok is false when the session has
// no durability configured.
func (s *Session) WALStats() (wal.Stats, bool) {
	if s.wal == nil {
		return wal.Stats{}, false
	}
	return s.wal.Stats(), true
}

// Checkpoint flushes the WAL and writes a full Gamma checkpoint at the
// next quiescent boundary, blocking until it is published (the durable
// watermark advances to the returned Seq) or the session dies first. It
// must not be called from rule bodies or actions: they run inside the drain
// the coordinator must finish before serving the request, so the call would
// deadlock.
func (s *Session) Checkpoint(ctx context.Context) (*CheckpointInfo, error) {
	if s.wal == nil {
		return nil, fmt.Errorf("jstar: checkpoint: session has no durability configured (Options.Durability)")
	}
	req := &checkpointRequest{done: make(chan checkpointResult, 1)}
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return nil, err
	}
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSessionClosed
	}
	s.ckptQ = append(s.ckptQ, req)
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	select {
	case res := <-req.done:
		return res.info, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.loopDone:
		select {
		case res := <-req.done:
			return res.info, res.err
		default:
		}
		if err := s.gate(); err != nil {
			return nil, err
		}
		return nil, ErrSessionClosed
	}
}

// maybeCheckpoint serves queued Checkpoint requests and the automatic
// cadence at a quiescent boundary; coordinator only. Everything absorbed
// is already appended (the tee runs inside the drain), so Flush + scan
// here snapshots exactly the quiesced prefix.
func (s *Session) maybeCheckpoint() {
	if s.wal == nil {
		return
	}
	s.mu.Lock()
	q := s.ckptQ
	s.ckptQ = nil
	s.mu.Unlock()
	auto := false
	if s.ckptEvery > 0 && s.quiesces-s.lastCkptQuiesce >= int64(s.ckptEvery) {
		// Only spend a checkpoint when the durable prefix moved.
		auto = s.wal.Stats().CheckpointSeq < s.walSeqHighWater()
	}
	if len(q) == 0 && !auto {
		return
	}
	info, err := s.writeCheckpoint()
	if err == nil {
		s.lastCkptQuiesce = s.quiesces
	}
	for _, req := range q {
		req.done <- checkpointResult{info: info, err: err}
	}
}

// walSeqHighWater is the highest sequence handed out so far (everything
// absorbed this session plus the recovered prefix).
func (s *Session) walSeqHighWater() uint64 {
	st := s.wal.Stats()
	base := uint64(0)
	if s.recovery != nil {
		base = s.recovery.DurableSeq
	}
	return base + st.Appended
}

// writeCheckpoint flushes the log and publishes a checkpoint of the
// quiesced Gamma state, each non-empty table's rows read from its store in
// Scan order; coordinator only, at a quiescent boundary.
func (s *Session) writeCheckpoint() (*CheckpointInfo, error) {
	start := time.Now()
	if err := s.wal.Flush(); err != nil {
		return nil, err
	}
	seq := s.wal.DurableSeq()
	info := &CheckpointInfo{Seq: seq}
	db := s.run.gammaDB
	var tables []wal.CheckpointSource
	for _, sch := range db.Schemas() {
		st := db.Table(sch)
		n := st.Len()
		if n == 0 {
			continue
		}
		tables = append(tables, wal.CheckpointSource{Schema: sch, Rows: n,
			Scan: func(fn func([]tuple.Value) bool) { gamma.ScanRows(st, fn) }})
		info.Tables++
		info.Tuples += n
	}
	if err := s.wal.WriteCheckpoint(seq, tables); err != nil {
		return nil, err
	}
	info.Elapsed = time.Since(start)
	return info, nil
}

// failCheckpoints rejects queued requests when the coordinator exits.
func (s *Session) failCheckpoints() {
	s.mu.Lock()
	q := s.ckptQ
	s.ckptQ = nil
	s.mu.Unlock()
	for _, req := range q {
		err := s.gate()
		if err == nil {
			err = ErrSessionClosed
		}
		req.done <- checkpointResult{err: err}
	}
}
