package wal

import (
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

// CheckpointTable is one table's rows, drained in CompareFields order
// (gamma.Dump), so checkpoint bytes are deterministic for a given quiesced
// state.
type CheckpointTable struct {
	Name string
	Rows []*tuple.Tuple
}

// Tuples returns the total row count across tables.
func (c *Checkpoint) Tuples() int {
	n := 0
	for _, t := range c.Tables {
		n += len(t.Rows)
	}
	return n
}

func encodeCheckpoint(c *Checkpoint) ([]byte, error) {
	p := []byte(ckptMagic)
	p = binary.LittleEndian.AppendUint16(p, walVersion)
	p = binary.LittleEndian.AppendUint64(p, c.Seq)
	p = appendString(p, c.Identity)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(c.Tables)))
	for _, t := range c.Tables {
		p = appendString(p, t.Name)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(t.Rows)))
		for _, r := range t.Rows {
			sch := r.Schema()
			if sch == nil || sch.Name != t.Name {
				return nil, fmt.Errorf("wal: checkpoint row of %s has schema %v", t.Name, sch)
			}
			var err error
			if p, err = appendFields(p, r, sch); err != nil {
				return nil, err
			}
		}
	}
	return appendFrame(nil, p), nil
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
		return nil, fmt.Errorf("wal: unsupported checkpoint version %d", v)
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
	p = p[4:]
	for i := uint32(0); i < nTables; i++ {
		var name string
		if name, p, err = takeString(p); err != nil {
			return nil, err
		}
		sch := resolve(name)
		if sch == nil {
			return nil, fmt.Errorf("wal: checkpoint table %q not declared on this program", name)
		}
		if len(p) < 4 {
			return nil, fmt.Errorf("wal: truncated row count for %s", name)
		}
		rows := binary.LittleEndian.Uint32(p)
		p = p[4:]
		// A row takes at least one byte per column, so the remaining payload
		// bounds the preallocation: a corrupt count cannot demand gigabytes.
		ct := CheckpointTable{Name: name, Rows: make([]*tuple.Tuple, 0, min(int(rows), len(p)))}
		for j := uint32(0); j < rows; j++ {
			var t *tuple.Tuple
			if t, p, err = parseFields(p, sch); err != nil {
				return nil, fmt.Errorf("wal: checkpoint %s row %d: %w", name, j, err)
			}
			ct.Rows = append(ct.Rows, t)
		}
		c.Tables = append(c.Tables, ct)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after checkpoint tables", len(p))
	}
	return c, nil
}

// WriteCheckpoint publishes a checkpoint atomically: fully written and
// fsynced under a temp name, then renamed into place, so a crash at any
// point leaves either the old set of checkpoints or the new one — never a
// half-written file with a valid name. Keeps the two newest checkpoints
// and prunes the rest.
//
// The caller must have Flushed the log through c.Seq first: a checkpoint
// may never claim coverage the WAL cannot back.
func (l *Log) WriteCheckpoint(c *Checkpoint) error {
	if c.Identity == "" {
		c.Identity = l.opts.Identity
	}
	if d := l.DurableSeq(); c.Seq > d {
		return fmt.Errorf("wal: checkpoint seq %d exceeds durable seq %d", c.Seq, d)
	}
	buf, err := encodeCheckpoint(c)
	if err != nil {
		return err
	}
	final := ckptName(c.Seq)
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
	l.pruneCheckpoints(c.Seq)
	l.mu.Lock()
	l.stats.CheckpointSeq = c.Seq
	l.stats.LastCheckpoint = time.Now()
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
