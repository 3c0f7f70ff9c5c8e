package delta

import (
	"slices"
	"testing"

	"github.com/jstar-lang/jstar/internal/order"
	"github.com/jstar-lang/jstar/internal/tuple"
)

func shipSchema() *tuple.Schema {
	return tuple.MustSchema("Ship",
		[]tuple.Column{
			{Name: "frame", Kind: tuple.KindInt},
			{Name: "x", Kind: tuple.KindInt},
		},
		[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("frame")})
}

func ship(s *tuple.Schema, frame, x int64) *tuple.Tuple {
	return tuple.New(s, tuple.Int(frame), tuple.Int(x))
}

// onTree runs fn on a fresh tree as subtest name/sequential — the name the
// case carried when a concurrent backend ran beside it.
func onTree(t *testing.T, name string, fn func(t *testing.T, tr *Tree)) {
	t.Helper()
	t.Run(name+"/sequential", func(t *testing.T) { fn(t, NewSequential(order.NewPartialOrder())) })
}

func TestPutAndTakeOrdered(t *testing.T) {
	onTree(t, "ordered", func(t *testing.T, tr *Tree) {
		s := shipSchema()
		// Insert frames out of order.
		for _, f := range []int64{5, 1, 3} {
			if !tr.Put(ship(s, f, 0)) {
				t.Fatalf("Put frame %d", f)
			}
		}
		if tr.Len() != 3 || tr.Empty() {
			t.Fatalf("Len = %d", tr.Len())
		}
		var frames []int64
		for {
			b := tr.TakeMinBatch()
			if b == nil {
				break
			}
			if len(b) != 1 {
				t.Fatalf("batch size %d", len(b))
			}
			frames = append(frames, b[0].Int("frame"))
		}
		if len(frames) != 3 || frames[0] != 1 || frames[1] != 3 || frames[2] != 5 {
			t.Errorf("extraction order %v", frames)
		}
		if !tr.Empty() {
			t.Error("tree should be empty")
		}
	})
}

func TestEquivalenceClassBatch(t *testing.T) {
	onTree(t, "class", func(t *testing.T, tr *Tree) {
		s := shipSchema()
		// 11 Ships within frame 18 -> one batch of 11 parallel tasks (§5).
		for x := int64(0); x < 11; x++ {
			tr.Put(ship(s, 18, x))
		}
		tr.Put(ship(s, 19, 0))
		b := tr.TakeMinBatch()
		if len(b) != 11 {
			t.Fatalf("batch = %d tuples, want 11", len(b))
		}
		for _, tp := range b {
			if tp.Int("frame") != 18 {
				t.Errorf("wrong frame in batch: %v", tp)
			}
		}
		if b2 := tr.TakeMinBatch(); len(b2) != 1 || b2[0].Int("frame") != 19 {
			t.Errorf("second batch wrong: %v", b2)
		}
	})
}

func TestDuplicateDiscarded(t *testing.T) {
	onTree(t, "dup", func(t *testing.T, tr *Tree) {
		s := shipSchema()
		if !tr.Put(ship(s, 1, 1)) {
			t.Fatal("first put")
		}
		if tr.Put(ship(s, 1, 1)) {
			t.Error("duplicate must be discarded (set-oriented semantics)")
		}
		if tr.Len() != 1 || tr.Duplicates() != 1 {
			t.Errorf("Len=%d dups=%d", tr.Len(), tr.Duplicates())
		}
	})
}

func TestLitLevelOrdering(t *testing.T) {
	// order Req < PvWatts < SumMonth: all Req tuples first, etc. (Fig 4)
	po := order.NewPartialOrder()
	if err := po.Declare("Req", "PvWatts", "SumMonth"); err != nil {
		t.Fatal(err)
	}
	req := tuple.MustSchema("PvWattsRequest",
		[]tuple.Column{{Name: "filename", Kind: tuple.KindString}},
		[]tuple.OrderEntry{tuple.Lit("Req")})
	pv := tuple.MustSchema("PvWatts",
		[]tuple.Column{{Name: "month", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("PvWatts")})
	sum := tuple.MustSchema("SumMonth",
		[]tuple.Column{{Name: "month", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("SumMonth")})
	tr := NewSequential(po)
	tr.Put(tuple.New(sum, tuple.Int(3)))
	tr.Put(tuple.New(pv, tuple.Int(1)))
	tr.Put(tuple.New(req, tuple.String_("f.csv")))
	tr.Put(tuple.New(pv, tuple.Int(2)))
	var names []string
	for {
		b := tr.TakeMinBatch()
		if b == nil {
			break
		}
		names = append(names, b[0].Schema().Name)
	}
	// PvWatts batch contains both pv tuples at once (same class).
	want := []string{"PvWattsRequest", "PvWatts", "SumMonth"}
	if !slices.Equal(names, want) {
		t.Fatalf("batch order %v, want %v", names, want)
	}
}

func TestDijkstraStyleMixedTables(t *testing.T) {
	// Estimate and Done share levels (Int, seq distance, <Lit>) with
	// Estimate < Done: at equal distance Estimates extract first.
	po := order.NewPartialOrder()
	if err := po.Declare("Estimate", "Done"); err != nil {
		t.Fatal(err)
	}
	est := tuple.MustSchema("Estimate",
		[]tuple.Column{{Name: "vertex", Kind: tuple.KindInt}, {Name: "distance", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("distance"), tuple.Lit("Estimate")})
	done := tuple.MustSchema("Done",
		[]tuple.Column{{Name: "vertex", Kind: tuple.KindInt}, {Name: "distance", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("distance"), tuple.Lit("Done")})
	tr := NewSequential(po)
	tr.Put(tuple.New(done, tuple.Int(0), tuple.Int(5)))
	tr.Put(tuple.New(est, tuple.Int(1), tuple.Int(5)))
	tr.Put(tuple.New(est, tuple.Int(2), tuple.Int(3)))

	b := tr.TakeMinBatch()
	if len(b) != 1 || b[0].Schema().Name != "Estimate" || b[0].Int("distance") != 3 {
		t.Fatalf("first batch %v", b)
	}
	b = tr.TakeMinBatch()
	if len(b) != 1 || b[0].Schema().Name != "Estimate" || b[0].Int("distance") != 5 {
		t.Fatalf("second batch %v (Estimate must precede Done at distance 5)", b)
	}
	b = tr.TakeMinBatch()
	if len(b) != 1 || b[0].Schema().Name != "Done" {
		t.Fatalf("third batch %v", b)
	}
}

func TestParLevelExtractsWholeSubtree(t *testing.T) {
	po := order.NewPartialOrder()
	s := tuple.MustSchema("T",
		[]tuple.Column{{Name: "step", Kind: tuple.KindInt}, {Name: "part", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Seq("step"), tuple.Par("part")})
	tr := NewSequential(po)
	for p := int64(0); p < 5; p++ {
		tr.Put(tuple.New(s, tuple.Int(1), tuple.Int(p)))
	}
	for p := int64(0); p < 3; p++ {
		tr.Put(tuple.New(s, tuple.Int(2), tuple.Int(p)))
	}
	b := tr.TakeMinBatch()
	if len(b) != 5 {
		t.Fatalf("par batch = %d, want 5", len(b))
	}
	for _, tp := range b {
		if tp.Int("step") != 1 {
			t.Errorf("wrong step in par batch: %v", tp)
		}
	}
	if b = tr.TakeMinBatch(); len(b) != 3 {
		t.Fatalf("second par batch = %d, want 3", len(b))
	}
}

func TestShortOrderbyExtractsBeforeDeeper(t *testing.T) {
	// A table whose orderby ends at depth 1 extracts before tables that
	// continue deeper under the same prefix.
	po := order.NewPartialOrder()
	shallow := tuple.MustSchema("Shallow",
		[]tuple.Column{{Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Int")})
	deep := tuple.MustSchema("Deep",
		[]tuple.Column{{Name: "t", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("t")})
	tr := NewSequential(po)
	tr.Put(tuple.New(deep, tuple.Int(0)))
	tr.Put(tuple.New(shallow, tuple.Int(9)))
	b := tr.TakeMinBatch()
	if len(b) != 1 || b[0].Schema().Name != "Shallow" {
		t.Fatalf("prefix tuples must extract first, got %v", b)
	}
}

func TestMismatchedLevelKindPanics(t *testing.T) {
	po := order.NewPartialOrder()
	a := tuple.MustSchema("A", []tuple.Column{{Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Seq("v")})
	b := tuple.MustSchema("B", []tuple.Column{{Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("B")})
	tr := NewSequential(po)
	tr.Put(tuple.New(a, tuple.Int(1)))
	defer func() {
		if recover() == nil {
			t.Error("conflicting level kinds must panic (ill-typed program)")
		}
	}()
	tr.Put(tuple.New(b, tuple.Int(1)))
}

func TestEmptyOrderbyGoesToRootLeaf(t *testing.T) {
	po := order.NewPartialOrder()
	s := tuple.MustSchema("Cmd", []tuple.Column{{Name: "v", Kind: tuple.KindInt}}, nil)
	tr := NewSequential(po)
	tr.Put(tuple.New(s, tuple.Int(1)))
	tr.Put(tuple.New(s, tuple.Int(2)))
	b := tr.TakeMinBatch()
	if len(b) != 2 {
		t.Fatalf("root leaf batch = %d", len(b))
	}
	if tr.TakeMinBatch() != nil {
		t.Error("tree should be drained")
	}
}

func TestTakeFromEmpty(t *testing.T) {
	tr := NewSequential(order.NewPartialOrder())
	if tr.TakeMinBatch() != nil {
		t.Error("TakeMinBatch on empty must return nil")
	}
}

func BenchmarkDeltaPutSequential(b *testing.B) {
	tr := NewSequential(order.NewPartialOrder())
	s := shipSchema()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Put(ship(s, int64(i%1000), int64(i)))
	}
}

func BenchmarkDeltaDrain(b *testing.B) {
	s := shipSchema()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := NewSequential(order.NewPartialOrder())
		for j := int64(0); j < 1000; j++ {
			tr.Put(ship(s, j, j))
		}
		b.StartTimer()
		for tr.TakeMinBatch() != nil {
		}
	}
}
