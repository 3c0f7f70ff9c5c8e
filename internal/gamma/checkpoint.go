package gamma

import (
	"slices"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// Checkpoint support: the durability tier snapshots Gamma by draining each
// table's store — Scan, then sort by field values — so a checkpoint of a
// quiesced state is deterministic regardless of which store kind backs the
// table or what order tuples arrived in.

// Dump drains st in CompareFields order.
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
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*tuple.Schema, 0, len(db.dense))
	for i := range db.dense {
		if db.dense[i].schema != nil {
			out = append(out, db.dense[i].schema)
		}
	}
	return out
}

// Restore bulk-loads rows into table s's store. It is only correct on a
// freshly built database before any derivation has run: restored rows do
// not fire rules (recovery refires them by replaying the WAL tail through
// the ordinary put path).
func (db *DB) Restore(s *tuple.Schema, rows []*tuple.Tuple) {
	InsertBatch(db.Table(s), rows, nil)
}
