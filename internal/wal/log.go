package wal

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// Options configures a Log. Zero values take the defaults noted below.
type Options struct {
	// FS is the file layer; DirFS for production, FaultFS under test.
	FS FS
	// Identity names the tenant/program owning this log. Recovery refuses
	// a directory whose segments carry a different identity.
	Identity string
	// GroupBytes flushes the pending group once it reaches this many
	// encoded bytes (default 64 KiB). 1 forces a sync per append —
	// useful for deterministic crash-point tests, ruinous in production.
	GroupBytes int
	// GroupInterval is the deadline flush cadence (default 2ms): a group
	// never waits longer than this for more company before its fsync.
	GroupInterval time.Duration
	// SegmentBytes is the soft rotation threshold (default 4 MiB): a
	// segment past it is sealed and chained before the next group.
	SegmentBytes int64
	// Resolve maps logged table names to schemas during recovery.
	Resolve Resolver
	// OnError observes the first terminal log error (failed write/fsync).
	// The log is dead afterwards: every Append and Flush returns the error.
	OnError func(error)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.GroupBytes <= 0 {
		out.GroupBytes = 64 << 10
	}
	if out.GroupInterval <= 0 {
		out.GroupInterval = 2 * time.Millisecond
	}
	if out.SegmentBytes <= 0 {
		out.SegmentBytes = 4 << 20
	}
	return out
}

// Stats is a point-in-time snapshot of log counters, exported to /metrics
// and the bench artifact.
type Stats struct {
	Appended       uint64    // tuples handed to Append
	DurableSeq     uint64    // highest tuple sequence known fsynced
	Bytes          int64     // bytes written to segments
	GroupCommits   int64     // fsyncs that committed at least one batch
	Segments       int       // segments created or reopened by this log
	CheckpointSeq  uint64    // sequence covered by the newest checkpoint
	LastCheckpoint time.Time // zero if never checkpointed
	// LastCheckpointElapsed and LastCheckpointBytes describe the newest
	// checkpoint this log wrote: WriteCheckpoint's wall time (encode,
	// write, fsync, publish) and the file's size. Zero if none yet.
	LastCheckpointElapsed time.Duration
	LastCheckpointBytes   int64
}

// Log is the append side of the WAL. One goroutine (the session
// coordinator) calls Append; a committer goroutine flushes groups by
// deadline; Flush and Close are safe from any goroutine.
type Log struct {
	fs   FS
	opts Options
	host string

	mu        sync.Mutex
	err       error // terminal; sticky
	cur       File
	curName   string
	curIndex  uint64
	curBytes  int64
	chain     uint64 // running chain over flushed frame bytes
	buf       []byte // encoded frames awaiting the next group commit
	seq       uint64 // last sequence handed out
	bufEndSeq uint64 // seq covered once buf flushes
	durable   uint64 // seq covered by the last successful fsync
	stats     Stats

	closeOnce sync.Once
	closeCh   chan struct{}
	doneCh    chan struct{}
}

// hostFingerprint matches the BENCH artifact's host identification so a
// segment header records where its bytes were produced.
func hostFingerprint() string {
	return fmt.Sprintf("%s/%s go%s cpu%d", runtime.GOOS, runtime.GOARCH, runtime.Version(), runtime.NumCPU())
}

func segName(index uint64) string { return fmt.Sprintf("seg-%016x.wal", index) }
func ckptName(seq uint64) string  { return fmt.Sprintf("ckpt-%016x.ckpt", seq) }
func parseSegName(name string) (uint64, bool) {
	var idx uint64
	if n, err := fmt.Sscanf(name, "seg-%016x.wal", &idx); n == 1 && err == nil && name == segName(idx) {
		return idx, true
	}
	return 0, false
}
func parseCkptName(name string) (uint64, bool) {
	var seq uint64
	if n, err := fmt.Sscanf(name, "ckpt-%016x.ckpt", &seq); n == 1 && err == nil && name == ckptName(seq) {
		return seq, true
	}
	return 0, false
}

// Append assigns the next sequence numbers to ts, encodes them as one
// batch record and queues it for the next group commit. It syncs inline
// only when the pending group crosses GroupBytes; otherwise the committer
// goroutine picks it up within GroupInterval.
func (l *Log) Append(ts []*tuple.Tuple) error {
	if len(ts) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	firstSeq := l.seq + 1
	payload, err := appendBatchPayload(nil, firstSeq, ts)
	if err != nil {
		return l.failLocked(err)
	}
	l.seq += uint64(len(ts))
	l.bufEndSeq = l.seq
	l.stats.Appended += uint64(len(ts))
	l.buf = appendFrame(l.buf, payload)
	if len(l.buf) >= l.opts.GroupBytes {
		return l.flushLocked()
	}
	return nil
}

// Flush forces the pending group to disk: one write, one fsync.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

// DurableSeq returns the highest tuple sequence known to be fsynced.
func (l *Log) DurableSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Stats returns a snapshot of the log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.DurableSeq = l.durable
	return s
}

// Err returns the terminal log error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

func (l *Log) failLocked(err error) error {
	if l.err != nil {
		return l.err
	}
	l.err = err
	if l.opts.OnError != nil {
		// Deliver on a fresh goroutine: the callback typically fails the
		// owning session, which in turn calls Close — which waits for the
		// committer goroutine that may be the one reporting the error.
		go l.opts.OnError(err)
	}
	return err
}

// flushLocked writes the pending group to the current segment and fsyncs
// it — the group commit. Rotation happens here, before the group lands, so
// a batch record never straddles segments.
func (l *Log) flushLocked() error {
	if l.err != nil {
		return l.err
	}
	if len(l.buf) == 0 {
		return nil
	}
	if l.curBytes >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return l.failLocked(err)
		}
	}
	if err := l.writeSyncLocked(l.buf); err != nil {
		return l.failLocked(err)
	}
	l.chain = fold(l.chain, l.buf)
	l.buf = l.buf[:0]
	l.durable = l.bufEndSeq
	l.stats.GroupCommits++
	return nil
}

// writeSyncLocked writes p to the current segment and fsyncs.
func (l *Log) writeSyncLocked(p []byte) error {
	if _, err := l.cur.Write(p); err != nil {
		return fmt.Errorf("wal: write %s: %w", l.curName, err)
	}
	if err := l.cur.Sync(); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", l.curName, err)
	}
	l.curBytes += int64(len(p))
	l.stats.Bytes += int64(len(p))
	return nil
}

// rotateLocked seals the current segment (trailer carrying the chain hash,
// one fsync) and opens the next, whose header pins the sealed chain.
func (l *Log) rotateLocked() error {
	seal := appendFrame(nil, appendSealPayload(nil, l.chain))
	if err := l.writeSyncLocked(seal); err != nil {
		return err
	}
	if err := l.cur.Close(); err != nil {
		return fmt.Errorf("wal: close %s: %w", l.curName, err)
	}
	return l.openSegmentLocked(l.curIndex + 1)
}

// openSegmentLocked creates segment index and writes its header frame.
// The header is not synced on its own; the next group commit covers it.
func (l *Log) openSegmentLocked(index uint64) error {
	name := segName(index)
	f, err := l.fs.OpenAppend(name)
	if err != nil {
		return fmt.Errorf("wal: open %s: %w", name, err)
	}
	hdr := appendFrame(nil, appendHeaderPayload(nil, segHeader{
		index:     index,
		prevChain: l.chain,
		identity:  l.opts.Identity,
		host:      l.host,
	}))
	l.cur, l.curName, l.curIndex, l.curBytes = f, name, index, 0
	if _, err := f.Write(hdr); err != nil {
		return fmt.Errorf("wal: write %s: %w", name, err)
	}
	l.curBytes += int64(len(hdr))
	l.stats.Bytes += int64(len(hdr))
	l.chain = fold(l.chain, hdr)
	l.stats.Segments++
	return nil
}

// committer is the deadline half of group commit.
func (l *Log) committer() {
	defer close(l.doneCh)
	tick := time.NewTicker(l.opts.GroupInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			_ = l.Flush() // sticky error surfaces via OnError / next Append
		case <-l.closeCh:
			return
		}
	}
}

// Close flushes and fsyncs the tail, seals the final segment and releases
// the file. A closed log's directory recovers with zero replay loss up to
// the last Append.
func (l *Log) Close() error {
	l.closeOnce.Do(func() {
		close(l.closeCh)
		<-l.doneCh
		l.mu.Lock()
		defer l.mu.Unlock()
		if err := l.flushLocked(); err == nil && l.cur != nil {
			seal := appendFrame(nil, appendSealPayload(nil, l.chain))
			if err := l.writeSyncLocked(seal); err != nil {
				_ = l.failLocked(err)
			}
		}
		if l.cur != nil {
			_ = l.cur.Close()
			l.cur = nil
		}
	})
	return l.Err()
}
