package gamma

import (
	"maps"
	"math"
	"slices"
	"testing"

	"github.com/jstar-lang/jstar/internal/delta"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// TestFloatDedupIsStoreIndependent: F(1, +0.0), F(1, -0.0) and
// F(2, NaN 0x7ff8…01), F(2, NaN 0x7ff8…02) are two set-semantics
// duplicates, and every store that accepts a float column — and the Delta
// set's sorted-run dedup — keeps exactly two tuples. (The ordered stores
// once called them equal by Compare while the hash and columnar stores
// told them apart by their bits, so a program's quiesced Gamma depended
// on its store plan.)
func TestFloatDedupIsStoreIndependent(t *testing.T) {
	s := tuple.MustSchema("F",
		[]tuple.Column{{Name: "k", Kind: tuple.KindInt}, {Name: "v", Kind: tuple.KindFloat}},
		[]tuple.OrderEntry{tuple.Lit("F")})
	batch := func() []*tuple.Tuple {
		ts := []*tuple.Tuple{
			tuple.New(s, tuple.Int(1), tuple.Float(0)),
			tuple.New(s, tuple.Int(1), tuple.Float(math.Copysign(0, -1))),
			tuple.New(s, tuple.Int(2), tuple.Float(math.Float64frombits(0x7ff8000000000001))),
			tuple.New(s, tuple.Int(2), tuple.Float(math.Float64frombits(0x7ff8000000000002))),
		}
		slices.SortStableFunc(ts, tuple.ComparePath)
		return ts
	}
	kept := map[string]func() int{
		"delta.DedupSorted": func() int { return len(delta.DedupSorted(batch(), nil)) },
		"delta.MergeRuns": func() int {
			ts := batch()
			return len(delta.MergeRuns([][]*tuple.Tuple{{ts[0], ts[2]}, {ts[1], ts[3]}}, nil, nil))
		},
	}
	for _, spec := range []string{"tree", "hash:1", "hash:2", "columnar", "columnar:2"} {
		kept[spec] = func() int {
			factory, err := FactoryFor(spec, s)
			if err != nil {
				t.Fatal(err)
			}
			st := factory(s)
			live := InsertBatch(st, batch(), nil)
			if len(live) != st.Len() {
				t.Errorf("%s: InsertBatch reported %d live tuples, Len %d", spec, len(live), st.Len())
			}
			return st.Len()
		}
	}
	for _, name := range slices.Sorted(maps.Keys(kept)) {
		if got := kept[name](); got != 2 {
			t.Errorf("%s keeps %d of F(1, ±0), F(2, NaN), F(2, NaN'), want 2", name, got)
		}
	}

	// With the float leading, the same values are index keys: a prefix of
	// -0.0 must find the +0.0 row, and a NaN with other bits the NaN row,
	// on the ordered, hashed and columnar stores alike (columnar through its
	// column-0 chain, and columnar:2 through a scan of its words).
	g := tuple.MustSchema("G",
		[]tuple.Column{{Name: "v", Kind: tuple.KindFloat}, {Name: "k", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("G")})
	rows := []*tuple.Tuple{
		tuple.New(g, tuple.Float(0), tuple.Int(1)),
		tuple.New(g, tuple.Float(math.Float64frombits(0x7ff8000000000001)), tuple.Int(2)),
	}
	slices.SortStableFunc(rows, tuple.ComparePath)
	for _, spec := range []string{"tree", "hash:1", "columnar", "columnar:2"} {
		factory, err := FactoryFor(spec, g)
		if err != nil {
			t.Fatal(err)
		}
		st := factory(g)
		InsertBatch(st, rows, nil)
		for _, probe := range []struct {
			key  float64
			want int64
		}{
			{math.Copysign(0, -1), 1},
			{math.Float64frombits(0x7ff8000000000003), 2},
		} {
			got := selected(st, Query{Prefix: []tuple.Value{tuple.Float(probe.key)}})
			if len(got) != 1 || got[0] != tuple.New(g, tuple.Float(probe.key), tuple.Int(probe.want)).String() {
				t.Errorf("%s: Select([%v]) = %v, want the one row with k=%d", spec, probe.key, got, probe.want)
			}
		}
	}
}
