package delta

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// TestLeafRunsDrainInStepOrder: leaves keep each flush's segment as a sorted
// run and merge at drain. After 1, 2 and many overlapping PutSorted flushes
// every drained class must be strictly ascending in the step order
// (tuple.CompareSchemaFields) — hence duplicate-free — and equal, tuple for
// tuple, to what a tree fed the same tuples one Put at a time drains; and
// once both are empty, Len, Duplicates and the duplicate callback's count
// must agree with that reference. bulkSchemas puts two tables on each
// (literal, t) leaf, so leaves hold runs of both.
func TestLeafRunsDrainInStepOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, flushes := range []int{1, 2, 3, 8, 40} {
		for trial := 0; trial < 25; trial++ {
			po, schemas := bulkSchemas()
			tr, ref := NewSequential(po), NewSequential(po)
			called, refDups := 0, 0
			tr.OnDuplicate = func(*tuple.Tuple) { called++ }
			for f := 0; f < flushes; f++ {
				flush := make([]*tuple.Tuple, 1+rng.Intn(60))
				for i := range flush {
					// Narrow domains: flushes overlap each other (and
					// themselves) in every leaf.
					flush[i] = tuple.New(schemas[rng.Intn(len(schemas))],
						tuple.Int(int64(rng.Intn(3))), tuple.Int(int64(rng.Intn(25))))
					if !ref.Put(flush[i]) {
						refDups++
					}
				}
				slices.SortFunc(flush, tuple.ComparePath)
				tr.PutSorted(flush, nil)
				if tr.Len() < ref.Len() || tr.Empty() {
					t.Fatalf("flushes=%d trial %d: Len %d under the reference's %d", flushes, trial, tr.Len(), ref.Len())
				}
			}
			for step := 0; ; step++ {
				got, want := tr.TakeMinBatch(), ref.TakeMinBatch()
				if got == nil && want == nil {
					break
				}
				for i := 1; i < len(got); i++ {
					if tuple.CompareSchemaFields(got[i-1], got[i]) >= 0 {
						t.Fatalf("flushes=%d trial %d step %d: %v then %v is not strictly ascending step order",
							flushes, trial, step, got[i-1], got[i])
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("flushes=%d trial %d step %d: drained\n %v\nPut reference drained\n %v", flushes, trial, step, got, want)
				}
			}
			if tr.Len() != 0 || !tr.Empty() || ref.Len() != 0 {
				t.Fatalf("flushes=%d trial %d: drained trees report Len %d (reference %d)", flushes, trial, tr.Len(), ref.Len())
			}
			if int(tr.Duplicates()) != refDups || int(ref.Duplicates()) != refDups || called != refDups {
				t.Fatalf("flushes=%d trial %d: Duplicates %d, callback %d, want the reference's %d",
					flushes, trial, tr.Duplicates(), called, refDups)
			}
		}
	}
}

// TestLeafOwnsItsRun: PutSorted copies the flush segment (the engine clears
// and recycles its flush buffer right after), and a leaf filled by one flush
// hands that copy over as the batch rather than copying again.
func TestLeafOwnsItsRun(t *testing.T) {
	po, schemas := bulkSchemas()
	flush := make([]*tuple.Tuple, 64)
	for i := range flush {
		flush[i] = tuple.New(schemas[0], tuple.Int(7), tuple.Int(int64(i)))
	}
	want := fmt.Sprint(flush)
	tr := NewSequential(po)
	tr.PutSorted(flush, nil)
	clear(flush)
	lit := tr.root.children[tr.root.head]
	key := lit.nd.children[lit.nd.head]
	run := key.nd.leaf.runs[0]
	batch := tr.TakeMinBatch()
	if fmt.Sprint(batch) != want {
		t.Fatalf("drained %v after the flush buffer was recycled, want %v", batch, want)
	}
	if &batch[0] != &run[0] {
		t.Fatal("single-run drain copied the leaf's run")
	}
}
