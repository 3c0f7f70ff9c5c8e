package gamma

import (
	"slices"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// Checkpoint support: the durability tier snapshots Gamma table by table,
// visiting each store's rows in its own Scan order through ScanRows and
// encoding their field values as they come — no tuple per row, no sort.
// Recovery restores the rows in that order, so a restored store scans as
// it did when the checkpoint was taken.

// RowStore is an optional Store extension: ScanRows visits every stored
// row's field values in Scan order until fn returns false, without
// materialising a tuple per row. The row slice is reused between calls and
// valid only during fn.
type RowStore interface {
	ScanRows(fn func(row []tuple.Value) bool)
}

// RowInserter is RowStore's write-side twin, an optional Store extension:
// InsertRow adds the row whose field values, in column order, are row —
// exactly as Insert adds the tuple of those values, false for a duplicate
// and the same panic for a key bound twice — without building the tuple.
// The values must be as the schema's tuples carry them (tuple.New's
// normalisation already applied); row is only read during the call. The
// engine seeds a program's initial word rows through it (core.Run.seed),
// and a store without it is handed a tuple per row.
type RowInserter interface {
	InsertRow(row []tuple.Value) bool
}

// ScanRows visits st's rows in Scan order as field values: natively for a
// RowStore, otherwise by copying each scanned tuple's fields into one
// reused row. The row is valid only during fn.
func ScanRows(st Store, fn func(row []tuple.Value) bool) {
	if rs, ok := st.(RowStore); ok {
		rs.ScanRows(fn)
		return
	}
	var row []tuple.Value
	st.Scan(func(t *tuple.Tuple) bool {
		row = t.AppendFields(row[:0])
		return fn(row)
	})
}

// Dump drains st in CompareFields order. Checkpoints no longer call it:
// its callers left are the benchmark's gamma.dump_ns_per_tuple probe and
// the tests.
func Dump(st Store) []*tuple.Tuple {
	drained := make([]*tuple.Tuple, 0, st.Len())
	st.Scan(func(t *tuple.Tuple) bool {
		drained = append(drained, t)
		return true
	})
	if len(drained) > 1 {
		slices.SortFunc(drained, func(a, b *tuple.Tuple) int { return a.CompareFields(b) })
	}
	return drained
}

// Schemas returns the registered schemas in dense-ID order — the stable
// iteration order checkpoints serialize tables in.
func (db *DB) Schemas() []*tuple.Schema {
	out := make([]*tuple.Schema, 0, len(db.dense))
	for i := range db.dense {
		if db.dense[i].schema != nil {
			out = append(out, db.dense[i].schema)
		}
	}
	return out
}

// Restore bulk-loads rows into table s's store in the given order — a
// checkpoint's, which is the order the store scanned in when it was
// written. It is only correct on a freshly built database before any
// derivation has run: restored rows do not fire rules (recovery refires
// them by replaying the WAL tail through the ordinary put path).
func (db *DB) Restore(s *tuple.Schema, rows []*tuple.Tuple) {
	InsertBatch(db.Table(s), rows, nil)
}
