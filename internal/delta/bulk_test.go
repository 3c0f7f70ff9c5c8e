package delta

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/jstar-lang/jstar/internal/order"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// bulkSchemas: three tables, two sharing a top-level literal and one with
// its own, all over a seq level-1 key.
func bulkSchemas() (*order.PartialOrder, []*tuple.Schema) {
	po := order.NewPartialOrder()
	mk := func(name, lit string, id int32) *tuple.Schema {
		s := tuple.MustSchema(name,
			[]tuple.Column{{Name: "t", Kind: tuple.KindInt}, {Name: "v", Kind: tuple.KindInt}},
			[]tuple.OrderEntry{tuple.Lit(lit), tuple.Seq("t")})
		s.SetID(id)
		po.Touch(lit)
		return s
	}
	a := mk("BA", "L1", 0)
	b := mk("BB", "L1", 1)
	c := mk("BC", "L2", 2)
	return po, []*tuple.Schema{a, b, c}
}

// litTopSchemas: bulkSchemas plus a depth-1 table whose paths end at the
// shared literal's node, above its sibling tables' leaves.
func litTopSchemas() (*order.PartialOrder, []*tuple.Schema) {
	po, schemas := bulkSchemas()
	d := tuple.MustSchema("BD",
		[]tuple.Column{{Name: "t", Kind: tuple.KindInt}, {Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("L1")})
	d.SetID(3)
	return po, append(schemas, d)
}

// seqTopSchemas: a data-dependent (seq) top level, shared by a depth-2
// table and a depth-1 table whose paths end at the level-1 nodes.
func seqTopSchemas() (*order.PartialOrder, []*tuple.Schema) {
	cols := []tuple.Column{{Name: "t", Kind: tuple.KindInt}, {Name: "v", Kind: tuple.KindInt}}
	a := tuple.MustSchema("SA", cols, []tuple.OrderEntry{tuple.Seq("t"), tuple.Seq("v")})
	a.SetID(0)
	b := tuple.MustSchema("SB", cols, []tuple.OrderEntry{tuple.Seq("t")})
	b.SetID(1)
	return order.NewPartialOrder(), []*tuple.Schema{a, b}
}

// drainAllBatches drains a tree to a flat []string of batch contents, with
// each batch internally sorted (intra-batch order is unspecified).
func drainAllBatches(tr *Tree) []string {
	var out []string
	for {
		b := tr.TakeMinBatch()
		if b == nil {
			return out
		}
		var lines []string
		for _, t := range b {
			lines = append(lines, t.String())
		}
		slices.Sort(lines)
		out = append(out, "batch:")
		out = append(out, lines...)
	}
}

// TestPutSortedUnsortedInputStillCorrect: a multi-flush schedule loaded
// through PutSorted must drain exactly like the same tuples inserted one
// at a time with Put — the same batches in the same order, each in the
// same step order, and the same Duplicates count. Each flush is loaded
// either sorted (the engine's shape) or deliberately unsorted: sortedness
// is a locality contract only. The narrow key domain makes duplicates
// within a flush, across flushes and across leaf runs, and TakeMinBatch
// calls interleaved between flushes drain leaves that later flushes
// refill.
func TestPutSortedUnsortedInputStillCorrect(t *testing.T) {
	shapes := map[string]func() (*order.PartialOrder, []*tuple.Schema){
		"literal-top": litTopSchemas,
		"seq-top":     seqTopSchemas,
	}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			var dups int64
			for trial := 0; trial < 60; trial++ {
				po, schemas := shape()
				ref, tr := NewSequential(po), NewSequential(po)
				take := func(flush int) {
					for k := rng.Intn(3); k > 0; k-- {
						want, got := fmt.Sprint(ref.TakeMinBatch()), fmt.Sprint(tr.TakeMinBatch())
						if got != want {
							t.Fatalf("trial %d flush %d: batch differs\ngot:  %s\nwant: %s", trial, flush, got, want)
						}
					}
				}
				for flush, n := 0, 1+rng.Intn(6); flush < n; flush++ {
					var ts []*tuple.Tuple
					for i := rng.Intn(120); i > 0; i-- {
						s := schemas[rng.Intn(len(schemas))]
						ts = append(ts, tuple.New(s, tuple.Int(int64(rng.Intn(6))), tuple.Int(int64(rng.Intn(3)))))
					}
					for _, x := range ts {
						ref.Put(x)
					}
					if rng.Intn(2) == 0 {
						slices.SortFunc(ts, tuple.ComparePath)
					}
					tr.PutSorted(ts, nil)
					take(flush)
				}
				for !ref.Empty() || !tr.Empty() {
					take(-1)
				}
				if got, want := tr.Duplicates(), ref.Duplicates(); got != want {
					t.Fatalf("trial %d: Duplicates = %d, Put reference %d", trial, got, want)
				}
				dups += ref.Duplicates()
			}
			if dups == 0 {
				t.Fatal("schedule produced no duplicates")
			}
		})
	}
}
