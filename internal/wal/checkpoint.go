package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// Checkpoint is a full Gamma snapshot covering every external tuple with
// sequence <= Seq. Recovery loads the newest valid checkpoint and replays
// only the WAL tail beyond it.
type Checkpoint struct {
	Seq      uint64
	Identity string
	Tables   []CheckpointTable
}

// CheckpointTable is one decoded table section: its rows in the order the
// checkpoint wrote them, which is the order the table's store scanned in
// at the quiescent boundary the checkpoint covers. Restoring them in that
// order gives the recovered store the same scan order.
type CheckpointTable struct {
	Name string
	Rows []*tuple.Tuple
}

// CheckpointSource is one table as WriteCheckpoint encodes it: the schema,
// the row count its section declares, and a visitor that must yield
// exactly that many rows of field values. A row is read only during the
// callback, so the visitor may reuse one slice for every row.
type CheckpointSource struct {
	Schema *tuple.Schema
	Rows   int
	Scan   func(fn func(row []tuple.Value) bool)
}

// A checkpoint file is one length+CRC frame around: ckptMagic | u16le
// walVersion | u64le seq | identity | u32le tableCount | one row-codec
// frame per table. The payload is encoded in place after a reserved frame
// head, into a buffer presized from each table's fixed-width bytes (its
// strings grow it), and the head is patched last.
func encodeCheckpoint(seq uint64, identity string, tables []CheckpointSource) ([]byte, error) {
	size := frameHead + len(ckptMagic) + 2 + 8 + 4 + len(identity) + 4
	for _, t := range tables {
		size += tuple.FrameBytes(t.Schema, t.Rows)
	}
	p := append(make([]byte, frameHead, size), ckptMagic...)
	p = binary.LittleEndian.AppendUint16(p, walVersion)
	p = binary.LittleEndian.AppendUint64(p, seq)
	p = appendString(p, identity)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(tables)))
	for _, t := range tables {
		p = tuple.AppendFrameHeader(p, t.Schema, t.Rows)
		n := 0
		var err error
		t.Scan(func(row []tuple.Value) bool {
			p, err = tuple.AppendRow(p, t.Schema, row)
			n++
			return err == nil
		})
		if err != nil {
			return nil, fmt.Errorf("wal: checkpoint: %w", err)
		}
		if n != t.Rows {
			return nil, fmt.Errorf("wal: checkpoint table %s yielded %d rows, declared %d", t.Schema.Name, n, t.Rows)
		}
	}
	return sealFrame(p), nil
}

func decodeCheckpoint(buf []byte, resolve Resolver) (*Checkpoint, error) {
	p, next, ok := readFrame(buf, 0)
	if !ok || next != int64(len(buf)) {
		return nil, fmt.Errorf("wal: checkpoint frame invalid or trailing bytes")
	}
	if len(p) < len(ckptMagic)+10 || string(p[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("wal: not a checkpoint file")
	}
	p = p[len(ckptMagic):]
	if v := binary.LittleEndian.Uint16(p); v != walVersion {
		return nil, fmt.Errorf("%w: checkpoint version %d (want %d)", errVersion, v, walVersion)
	}
	p = p[2:]
	c := &Checkpoint{Seq: binary.LittleEndian.Uint64(p)}
	p = p[8:]
	var err error
	if c.Identity, p, err = takeString(p); err != nil {
		return nil, err
	}
	if len(p) < 4 {
		return nil, fmt.Errorf("wal: truncated checkpoint table count")
	}
	nTables := binary.LittleEndian.Uint32(p)
	src := bytes.NewReader(p[4:])
	rd := tuple.NewRowReader(src)
	for i := uint32(0); i < nTables; i++ {
		sch, rows, err := rd.ReadFrame(resolve)
		if err != nil {
			return nil, fmt.Errorf("wal: checkpoint table %d: %w", i, err)
		}
		// A row takes at least one byte per column, so the remaining payload
		// bounds the preallocation: a corrupt count cannot demand gigabytes.
		ct := CheckpointTable{Name: sch.Name, Rows: make([]*tuple.Tuple, 0, min(rows, src.Len()))}
		for j := 0; j < rows; j++ {
			row, err := rd.ReadRow(sch)
			if err != nil {
				return nil, fmt.Errorf("wal: checkpoint %s row %d: %w", sch.Name, j, err)
			}
			ct.Rows = append(ct.Rows, tuple.New(sch, row...))
		}
		c.Tables = append(c.Tables, ct)
	}
	if src.Len() != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after checkpoint tables", src.Len())
	}
	return c, nil
}

// WriteCheckpoint publishes a checkpoint covering input sequence seq,
// one section per table in the given order: encoded, fully written and
// fsynced under a temp name, then renamed into place, so a crash at any
// point leaves either the old set of checkpoints or the new one — never a
// half-written file with a valid name. A table whose visitor yields a row
// count other than the one it declares fails the write before any file
// is opened. Keeps the two newest checkpoints and prunes the rest.
//
// The caller must have Flushed the log through seq first: a checkpoint
// may never claim coverage the WAL cannot back.
func (l *Log) WriteCheckpoint(seq uint64, tables []CheckpointSource) error {
	start := time.Now()
	if d := l.DurableSeq(); seq > d {
		return fmt.Errorf("wal: checkpoint seq %d exceeds durable seq %d", seq, d)
	}
	buf, err := encodeCheckpoint(seq, l.opts.Identity, tables)
	if err != nil {
		return err
	}
	final := ckptName(seq)
	tmp := final + ".tmp"
	f, err := l.fs.OpenAppend(tmp)
	if err != nil {
		return fmt.Errorf("wal: open %s: %w", tmp, err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("wal: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close %s: %w", tmp, err)
	}
	if err := l.fs.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: publish %s: %w", final, err)
	}
	l.pruneCheckpoints(seq)
	now := time.Now()
	l.mu.Lock()
	l.stats.CheckpointSeq = seq
	l.stats.LastCheckpoint = now
	l.stats.LastCheckpointElapsed = now.Sub(start)
	l.stats.LastCheckpointBytes = int64(len(buf))
	l.mu.Unlock()
	return nil
}

// pruneCheckpoints removes all but the two newest checkpoints (keeping a
// fallback in case the newest is later found damaged).
func (l *Log) pruneCheckpoints(newest uint64) {
	names, err := l.fs.List()
	if err != nil {
		return
	}
	var seqs []uint64
	for _, n := range names {
		if s, ok := parseCkptName(n); ok && s != newest {
			seqs = append(seqs, s)
		}
	}
	if len(seqs) <= 1 {
		return
	}
	// seqs is ascending (List sorts names; fixed-width hex sorts by value).
	for _, s := range seqs[:len(seqs)-1] {
		_ = l.fs.Remove(ckptName(s))
	}
}
