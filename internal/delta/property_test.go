package delta

import (
	"testing"
	"testing/quick"

	"github.com/jstar-lang/jstar/internal/order"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// TestDrainOrderProperty: for arbitrary insert sets, TakeMinBatch drains
// batches in non-decreasing causal-key order, each batch is one
// equivalence class, and the union of batches equals the unique inserts.
func TestDrainOrderProperty(t *testing.T) {
	s := tuple.MustSchema("E",
		[]tuple.Column{
			{Name: "t", Kind: tuple.KindInt},
			{Name: "v", Kind: tuple.KindInt},
		},
		[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("t")})
	f := func(pairs []struct{ T, V int8 }) bool {
		tr := NewSequential(order.NewPartialOrder())
		uniq := map[[2]int8]bool{}
		for _, p := range pairs {
			tr.Put(tuple.New(s, tuple.Int(int64(p.T)), tuple.Int(int64(p.V))))
			uniq[[2]int8{p.T, p.V}] = true
		}
		if tr.Len() != len(uniq) {
			return false
		}
		drained := 0
		lastT := int64(-1 << 30)
		for {
			batch := tr.TakeMinBatch()
			if batch == nil {
				break
			}
			bt := batch[0].Int("t")
			if bt < lastT {
				return false // batches must be non-decreasing
			}
			for _, tp := range batch {
				if tp.Int("t") != bt {
					return false // one equivalence class per batch
				}
				if !uniq[[2]int8{int8(tp.Int("t")), int8(tp.Int("v"))}] {
					return false // unknown tuple surfaced
				}
				drained++
			}
			lastT = bt
		}
		return drained == len(uniq) && tr.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestReinsertAfterDrain verifies the tree is reusable across steps with
// interleaved puts (the engine's actual pattern).
func TestReinsertAfterDrain(t *testing.T) {
	s := tuple.MustSchema("E",
		[]tuple.Column{{Name: "t", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Seq("t")})
	tr := NewSequential(order.NewPartialOrder())
	tr.Put(tuple.New(s, tuple.Int(1)))
	total := 0
	for {
		b := tr.TakeMinBatch()
		if b == nil {
			break
		}
		total += len(b)
		if v := b[0].Int("t"); v < 5 {
			// Rules put strictly-future tuples while processing a batch.
			tr.Put(tuple.New(s, tuple.Int(v+1)))
			tr.Put(tuple.New(s, tuple.Int(v+1))) // duplicate, discarded
		}
	}
	if total != 5 {
		t.Errorf("drained %d tuples, want 5", total)
	}
}
