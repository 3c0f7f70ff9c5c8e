package wal

import (
	"errors"
	"fmt"
	"strings"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// CorruptError is the loud failure mode: the log is damaged somewhere a
// crash cannot explain — inside a sealed segment, across the hash chain,
// in a decodable-but-impossible record, or in a segment or checkpoint of
// another format version — and recovery refuses to guess. It names the
// exact file and byte offset so the damage can be audited.
type CorruptError struct {
	Segment string
	Offset  int64
	Reason  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt log: %s at %s+%d", e.Reason, e.Segment, e.Offset)
}

// Recovered is what Open found in an existing log directory.
type Recovered struct {
	// Checkpoint is the newest valid checkpoint, nil if none survived.
	Checkpoint *Checkpoint
	// Tail holds the replayable tuples: every logged tuple with sequence
	// beyond the checkpoint, in original absorption order.
	Tail []*tuple.Tuple
	// DurableSeq is the highest tuple sequence the recovered state covers.
	DurableSeq uint64
	// TruncatedBytes counts torn-tail bytes cut from the final segment —
	// the benign kind of damage a crash mid-group-commit leaves.
	TruncatedBytes int64
	// Segments is how many sealed segments were verified against the chain.
	Segments int
}

// Open opens (or creates) the log in o.FS, recovering whatever a previous
// process left behind. The contract, pinned by the crash-fault suite:
//
//   - A torn or CRC-failed record in the final, unsealed segment is what a
//     power cut mid-write leaves; the tail is truncated there and recovery
//     proceeds with everything before it.
//   - Any damage in a sealed segment, any hash-chain or seal mismatch, any
//     identity mismatch, or a record that passes its CRC but cannot decode
//     against the program, is corruption: Open fails with a *CorruptError
//     naming the segment and offset. Never a silently wrong table.
//
// On success the returned Log is ready to Append (the final segment is
// sealed and a fresh one opened, so every process boundary is visible in
// the chain), and Recovered describes what to restore and replay.
func Open(o Options) (*Log, *Recovered, error) {
	o = o.withDefaults()
	if o.FS == nil {
		return nil, nil, fmt.Errorf("wal: Options.FS is required")
	}
	if o.Resolve == nil {
		return nil, nil, fmt.Errorf("wal: Options.Resolve is required")
	}
	names, err := o.FS.List()
	if err != nil {
		return nil, nil, fmt.Errorf("wal: list log dir: %w", err)
	}
	var segs []uint64
	var ckpts []uint64
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			_ = o.FS.Remove(n) // unpublished checkpoint from a crashed writer
			continue
		}
		if idx, ok := parseSegName(n); ok {
			segs = append(segs, idx)
		} else if seq, ok := parseCkptName(n); ok {
			ckpts = append(ckpts, seq)
		}
	}
	// List is sorted and the names are fixed-width hex, so segs and ckpts
	// are ascending by value.

	rec := &Recovered{}
	for i := len(ckpts) - 1; i >= 0; i-- {
		buf, err := o.FS.ReadFile(ckptName(ckpts[i]))
		if err != nil {
			continue
		}
		c, err := decodeCheckpoint(buf, o.Resolve)
		if errors.Is(err, errVersion) {
			return nil, nil, &CorruptError{Segment: ckptName(ckpts[i]), Offset: 0, Reason: err.Error()}
		}
		if err != nil {
			continue // damaged checkpoint: fall back to the previous one
		}
		if c.Identity != o.Identity {
			return nil, nil, fmt.Errorf("wal: checkpoint %s belongs to %q, not %q",
				ckptName(ckpts[i]), c.Identity, o.Identity)
		}
		rec.Checkpoint = c
		break
	}

	l := &Log{
		fs:      o.FS,
		opts:    o,
		host:    hostFingerprint(),
		chain:   chainSeed,
		closeCh: make(chan struct{}),
		doneCh:  make(chan struct{}),
	}

	ckptSeq := uint64(0)
	if rec.Checkpoint != nil {
		ckptSeq = rec.Checkpoint.Seq
	}
	expectSeq := uint64(1) // batch sequence continuity across the whole log
	lastSeq := uint64(0)
	nextIndex := uint64(1)

	for si, idx := range segs {
		name := segName(idx)
		last := si == len(segs)-1
		if idx != nextIndex {
			return nil, nil, &CorruptError{Segment: name, Offset: 0,
				Reason: fmt.Sprintf("segment index %d, expected %d (missing segment)", idx, nextIndex)}
		}
		nextIndex = idx + 1
		buf, err := o.FS.ReadFile(name)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: read %s: %w", name, err)
		}
		var off int64
		payload, next, ok := readFrame(buf, off)
		if !ok {
			if last {
				// Torn before the header even landed: discard the segment
				// and reuse its index.
				rec.TruncatedBytes += int64(len(buf))
				_ = o.FS.Remove(name)
				nextIndex = idx
				break
			}
			return nil, nil, &CorruptError{Segment: name, Offset: off, Reason: "unreadable segment header"}
		}
		hdr, err := parseHeaderPayload(payload)
		if err != nil {
			return nil, nil, &CorruptError{Segment: name, Offset: off, Reason: err.Error()}
		}
		if hdr.index != idx {
			return nil, nil, &CorruptError{Segment: name, Offset: off,
				Reason: fmt.Sprintf("header claims index %d", hdr.index)}
		}
		if hdr.identity != o.Identity {
			return nil, nil, &CorruptError{Segment: name, Offset: off,
				Reason: fmt.Sprintf("segment belongs to %q, not %q", hdr.identity, o.Identity)}
		}
		if hdr.prevChain != l.chain {
			return nil, nil, &CorruptError{Segment: name, Offset: off,
				Reason: fmt.Sprintf("chain mismatch: header pins %016x, chain is %016x", hdr.prevChain, l.chain)}
		}
		l.chain = fold(l.chain, buf[off:next])
		off = next
		sealed := false
		for off < int64(len(buf)) {
			payload, next, ok := readFrame(buf, off)
			if !ok {
				if last && !sealed {
					// The benign crash signature: a group commit that never
					// finished. Cut the tail and recover everything before it.
					if err := o.FS.Truncate(name, off); err != nil {
						return nil, nil, fmt.Errorf("wal: truncate torn tail of %s: %w", name, err)
					}
					rec.TruncatedBytes += int64(len(buf)) - off
					buf = buf[:off]
					break
				}
				return nil, nil, &CorruptError{Segment: name, Offset: off, Reason: "unreadable record"}
			}
			switch payload[0] {
			case recBatch:
				if sealed {
					return nil, nil, &CorruptError{Segment: name, Offset: off, Reason: "record after seal"}
				}
				before := len(rec.Tail)
				firstSeq, tail, err := parseBatchPayload(payload, o.Resolve, rec.Tail)
				if err != nil {
					// The CRC passed, so these bytes are what was written —
					// the program and the log disagree. Loud, not truncated.
					return nil, nil, &CorruptError{Segment: name, Offset: off, Reason: err.Error()}
				}
				n := uint64(len(tail) - before)
				if firstSeq != expectSeq {
					return nil, nil, &CorruptError{Segment: name, Offset: off,
						Reason: fmt.Sprintf("batch starts at seq %d, expected %d", firstSeq, expectSeq)}
				}
				expectSeq += n
				lastSeq = firstSeq + n - 1
				// Drop the checkpoint-covered prefix from the replay tail.
				if firstSeq <= ckptSeq {
					covered := int(min(ckptSeq-firstSeq+1, n))
					tail = append(tail[:before], tail[before+covered:]...)
				}
				rec.Tail = tail
				l.chain = fold(l.chain, buf[off:next])
			case recSeal:
				if sealed {
					return nil, nil, &CorruptError{Segment: name, Offset: off, Reason: "record after seal"}
				}
				chain, ok := parseSealPayload(payload)
				if !ok {
					return nil, nil, &CorruptError{Segment: name, Offset: off, Reason: "malformed seal"}
				}
				if chain != l.chain {
					return nil, nil, &CorruptError{Segment: name, Offset: off,
						Reason: fmt.Sprintf("seal chain %016x does not match computed %016x", chain, l.chain)}
				}
				sealed = true
			default:
				return nil, nil, &CorruptError{Segment: name, Offset: off,
					Reason: fmt.Sprintf("unknown record type 0x%02x", payload[0])}
			}
			off = next
		}
		if !sealed && !last {
			return nil, nil, &CorruptError{Segment: name, Offset: off, Reason: "interior segment missing its seal"}
		}
		rec.Segments++
		if !sealed {
			// Crashed writer's final segment, tail already truncated: seal
			// it now so the process boundary is pinned in the chain.
			if int64(len(buf)) > 0 {
				f, err := o.FS.OpenAppend(name)
				if err != nil {
					return nil, nil, fmt.Errorf("wal: reopen %s: %w", name, err)
				}
				seal := appendFrame(nil, appendSealPayload(nil, l.chain))
				if _, err := f.Write(seal); err == nil {
					err = f.Sync()
				}
				if err != nil {
					f.Close()
					return nil, nil, fmt.Errorf("wal: seal %s: %w", name, err)
				}
				if err := f.Close(); err != nil {
					return nil, nil, fmt.Errorf("wal: close %s: %w", name, err)
				}
				l.stats.Bytes += int64(len(seal))
			}
		}
		l.stats.Bytes += int64(len(buf))
	}

	rec.DurableSeq = lastSeq
	if ckptSeq > rec.DurableSeq {
		rec.DurableSeq = ckptSeq
	}
	l.seq = rec.DurableSeq
	l.bufEndSeq = rec.DurableSeq
	l.durable = rec.DurableSeq
	l.stats.Appended = 0
	l.stats.CheckpointSeq = ckptSeq
	l.stats.Segments = rec.Segments

	l.mu.Lock()
	err = l.openSegmentLocked(nextIndex)
	l.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	go l.committer()
	return l, rec, nil
}
