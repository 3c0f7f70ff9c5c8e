package gamma

import (
	"testing"

	"github.com/jstar-lang/jstar/internal/testrace"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// TestColumnarInsertAllocationBudget pins the columnar store's insert
// path to amortised growth: a fresh store taking 4 096 distinct rows
// through InsertBatch allocates only when a column slice, the chain slice
// or an index table grows — well under one object per 10 rows (a Go map
// of per-hash row slices, the dedup index this replaced, cost one per
// row). A count, not a timing.
func TestColumnarInsertAllocationBudget(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := tuple.MustSchema("P",
		[]tuple.Column{{Name: "a", Kind: tuple.KindInt}, {Name: "b", Kind: tuple.KindInt}}, nil)
	const n = 4096
	ts := make([]*tuple.Tuple, n)
	for i := range ts {
		ts[i] = tuple.New(s, tuple.Int(int64(i/4)), tuple.Int(int64(i)))
	}
	live := make([]*tuple.Tuple, 0, n)
	allocs := testing.AllocsPerRun(5, func() {
		live = NewColumnarStore(s).(BatchStore).InsertBatch(ts, live[:0])
	})
	if len(live) != n {
		t.Fatalf("InsertBatch kept %d of %d distinct rows", len(live), n)
	}
	if perRow := allocs / n; perRow >= 0.1 {
		t.Errorf("columnar InsertBatch: %.0f allocations for %d rows (%.3f per row), want < 0.1 per row", allocs, n, perRow)
	}
}
