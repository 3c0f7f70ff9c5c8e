// Package wal implements the engine's durability tier: an append-only,
// segmented write-ahead log of external tuples, group-committed off the
// ingestion hot path, plus Gamma checkpoints and crash recovery.
//
// The log is written by the session coordinator as it absorbs the
// session's pending ingress (the tee point): every absorbed list of
// external tuples is encoded into one CRC-framed batch record, records are
// buffered and flushed by size-or-deadline before one amortised fsync (the
// classic group-commit shape), and segments are hash-chained head to tail so a tampered
// historical segment is rejected rather than replayed. Recovery loads the
// newest valid checkpoint and replays the WAL tail through the ordinary
// put path; the engine's deterministic fixpoint makes replay correctness
// testable against an uncrashed run (the parity property the crash-fault
// suite pins).
//
// Layout of a log directory:
//
//	seg-0000000000000001.wal     header ┐ record ... record [seal]
//	seg-0000000000000002.wal            │ each segment chained to the last
//	ckpt-0000000000003e8.ckpt           ┘ checkpoint covering tuple seq 1000
//
// Every write goes through the FS interface so the crash-fault harness
// (FaultFS) can drop, tear or bit-flip writes and simulate power loss at
// any fsync boundary; production uses DirFS, the real filesystem.
package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS is the file layer beneath a Log: the minimal set of operations the
// appender, the checkpointer and recovery need, rooted at one directory.
// Names are always bare file names ("seg-....wal"), never paths, so a
// fault-injecting implementation can key its behaviour on them.
type FS interface {
	// OpenAppend opens name for appending, creating it (and the root
	// directory) if absent.
	OpenAppend(name string) (File, error)
	// ReadFile returns the entire current contents of name.
	ReadFile(name string) ([]byte, error)
	// List returns the file names in the root, sorted ascending.
	List() ([]string, error)
	// Truncate shortens name to size bytes (recovery cutting a torn tail).
	Truncate(name string, size int64) error
	// Rename atomically renames old to new — the checkpoint publish step:
	// a checkpoint is fully written and synced under a temp name first, so
	// a crash never leaves a half-written file with a valid name.
	Rename(oldname, newname string) error
	// Remove deletes name (pruning superseded checkpoints).
	Remove(name string) error
}

// File is one appendable log file.
type File interface {
	io.Writer
	// Sync durably flushes everything written so far; a group commit is
	// exactly one Sync over many buffered records.
	Sync() error
	Close() error
}

// DirFS returns the production FS: real files under root, created on
// first use.
func DirFS(root string) FS { return &dirFS{root: root} }

type dirFS struct{ root string }

func (d *dirFS) path(name string) string { return filepath.Join(d.root, name) }

func (d *dirFS) OpenAppend(name string) (File, error) {
	if err := os.MkdirAll(d.root, 0o755); err != nil {
		return nil, err
	}
	return os.OpenFile(d.path(name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (d *dirFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(d.path(name)) }

func (d *dirFS) List() ([]string, error) {
	ents, err := os.ReadDir(d.root)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (d *dirFS) Truncate(name string, size int64) error { return os.Truncate(d.path(name), size) }

func (d *dirFS) Rename(oldname, newname string) error {
	return os.Rename(d.path(oldname), d.path(newname))
}

func (d *dirFS) Remove(name string) error { return os.Remove(d.path(name)) }

// ErrCrashed is returned by every FaultFS operation after the injected
// power loss: the process the FS belonged to is "dead", and only the
// durable view (FaultFS.Durable) remains.
var ErrCrashed = fmt.Errorf("wal: simulated power loss")
