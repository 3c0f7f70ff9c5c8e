package gamma

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/jstar-lang/jstar/internal/tuple"
)

func pvSchema() *tuple.Schema {
	// Column order chosen so (year, month) is the query prefix.
	return tuple.MustSchema("PvWatts",
		[]tuple.Column{
			{Name: "year", Kind: tuple.KindInt},
			{Name: "month", Kind: tuple.KindInt},
			{Name: "day", Kind: tuple.KindInt},
			{Name: "power", Kind: tuple.KindInt},
		},
		[]tuple.OrderEntry{tuple.Lit("PvWatts")})
}

func pv(s *tuple.Schema, y, m, d, p int64) *tuple.Tuple {
	return tuple.New(s, tuple.Int(y), tuple.Int(m), tuple.Int(d), tuple.Int(p))
}

// allStores runs a subtest against every general-purpose store type.
func allStores(t *testing.T, fn func(t *testing.T, st Store)) {
	t.Helper()
	s := pvSchema()
	factories := map[string]StoreFactory{
		"tree":      NewTreeStore,
		"hash2":     NewHashStore(2),
		"arrayhsh":  NewArrayOfHashSets(1, 1, 12), // month column, range 1..12
		"columnar":  NewColumnarStore(1),
		"columnar2": NewColumnarStore(2), // (year, month) chains
		// inthash1 keeps the name of the int-only store keyed on one column
		// that columnar replaced; it runs columnar with every row and key
		// on 16 hashes, so each case also walks the collision paths.
		"inthash1": func(s *tuple.Schema) Store {
			st := NewColumnarStore(1)(s)
			setHashMask(st, 0xF)
			return st
		},
	}
	for name, f := range factories {
		t.Run(name, func(t *testing.T) { fn(t, f(s)) })
	}
}

func TestInsertDedupAndLen(t *testing.T) {
	allStores(t, func(t *testing.T, st Store) {
		s := pvSchema()
		if !st.Insert(pv(s, 2000, 1, 1, 50)) {
			t.Fatal("first insert")
		}
		if st.Insert(pv(s, 2000, 1, 1, 50)) {
			t.Error("duplicate insert must return false")
		}
		if !st.Insert(pv(s, 2000, 1, 1, 60)) {
			t.Error("different power is a different tuple")
		}
		if st.Len() != 2 {
			t.Errorf("Len = %d", st.Len())
		}
	})
}

func TestSelectByPrefix(t *testing.T) {
	allStores(t, func(t *testing.T, st Store) {
		s := pvSchema()
		for y := int64(2000); y < 2003; y++ {
			for m := int64(1); m <= 12; m++ {
				for d := int64(1); d <= 3; d++ {
					st.Insert(pv(s, y, m, d, y*100+m))
				}
			}
		}
		// get PvWatts(2001, 6): equality prefix (year, month).
		var got []*tuple.Tuple
		st.Select(Query{Prefix: []tuple.Value{tuple.Int(2001), tuple.Int(6)}},
			func(tp *tuple.Tuple) bool { got = append(got, tp); return true })
		if len(got) != 3 {
			t.Fatalf("Select returned %d tuples, want 3", len(got))
		}
		for _, tp := range got {
			if tp.Int("year") != 2001 || tp.Int("month") != 6 {
				t.Errorf("wrong tuple %v", tp)
			}
		}
	})
}

func TestSelectWithWhere(t *testing.T) {
	allStores(t, func(t *testing.T, st Store) {
		s := pvSchema()
		for d := int64(1); d <= 10; d++ {
			st.Insert(pv(s, 2000, 3, d, d*10))
		}
		n := 0
		st.Select(Query{
			Prefix: []tuple.Value{tuple.Int(2000), tuple.Int(3)},
			Where:  func(tp *tuple.Tuple) bool { return tp.Int("power") > 50 },
		}, func(*tuple.Tuple) bool { n++; return true })
		if n != 5 {
			t.Errorf("Where filter matched %d, want 5", n)
		}
	})
}

func TestSelectEarlyStop(t *testing.T) {
	allStores(t, func(t *testing.T, st Store) {
		s := pvSchema()
		for d := int64(1); d <= 10; d++ {
			st.Insert(pv(s, 2000, 3, d, 0))
		}
		n := 0
		st.Select(Query{Prefix: []tuple.Value{tuple.Int(2000)}},
			func(*tuple.Tuple) bool { n++; return n < 4 })
		if n != 4 {
			t.Errorf("early stop visited %d", n)
		}
	})
}

func TestSelectNoPrefixScansAll(t *testing.T) {
	allStores(t, func(t *testing.T, st Store) {
		s := pvSchema()
		for d := int64(1); d <= 5; d++ {
			st.Insert(pv(s, 2000, int64(d%12+1), d, d))
		}
		n := 0
		st.Select(Query{Where: func(tp *tuple.Tuple) bool { return tp.Int("power")%2 == 0 }},
			func(*tuple.Tuple) bool { n++; return true })
		if n != 2 {
			t.Errorf("unfiltered Select matched %d, want 2", n)
		}
	})
}

func TestScanVisitsEverything(t *testing.T) {
	allStores(t, func(t *testing.T, st Store) {
		s := pvSchema()
		for d := int64(1); d <= 7; d++ {
			st.Insert(pv(s, 2000, 1, d, d))
		}
		n := 0
		st.Scan(func(*tuple.Tuple) bool { n++; return true })
		if n != 7 {
			t.Errorf("Scan visited %d", n)
		}
	})
}

func TestConcurrentInsertAllStores(t *testing.T) {
	allStores(t, func(t *testing.T, st Store) {
		s := pvSchema()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := int64(0); i < 500; i++ {
					st.Insert(pv(s, 2000+i%3, i%12+1, int64(w)*1000+i, i))
				}
			}(w)
		}
		wg.Wait()
		if st.Len() != 8*500 {
			t.Errorf("Len = %d, want %d", st.Len(), 8*500)
		}
	})
}

func TestTreeStoreOrderedScan(t *testing.T) {
	s := pvSchema()
	st := NewTreeStore(s)
	st.Insert(pv(s, 2002, 1, 1, 0))
	st.Insert(pv(s, 2000, 1, 1, 0))
	st.Insert(pv(s, 2001, 1, 1, 0))
	var years []int64
	st.Scan(func(tp *tuple.Tuple) bool { years = append(years, tp.Int("year")); return true })
	if years[0] != 2000 || years[1] != 2001 || years[2] != 2002 {
		t.Errorf("ordered scan = %v", years)
	}
}

func TestHashStoreFallbackScan(t *testing.T) {
	s := pvSchema()
	st := NewHashStore(2)(s)
	for d := int64(1); d <= 5; d++ {
		st.Insert(pv(s, 2000, 1, d, d))
	}
	// Prefix shorter than the hash key (k=2) falls back to scan+filter.
	n := 0
	st.Select(Query{Prefix: []tuple.Value{tuple.Int(2000)}},
		func(*tuple.Tuple) bool { n++; return true })
	if n != 5 {
		t.Errorf("fallback scan matched %d", n)
	}
}

func TestArrayOfHashSetsOutOfRangePanics(t *testing.T) {
	s := pvSchema()
	st := NewArrayOfHashSets(1, 1, 12)(s)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range month must panic")
		}
	}()
	st.Insert(pv(s, 2000, 13, 1, 0))
}

func TestDBFactoryAndOverride(t *testing.T) {
	s := pvSchema()
	other := tuple.MustSchema("Other", []tuple.Column{{Name: "v", Kind: tuple.KindInt}}, nil)
	s.SetID(0)
	other.SetID(1)
	db := NewDB([]*tuple.Schema{s, other}, map[string]StoreFactory{"PvWatts": NewHashStore(2)})
	st := db.Table(s)
	if _, ok := st.(*hashStore); !ok {
		t.Errorf("factory not applied: got %T", st)
	}
	if db.Table(s) != st {
		t.Error("Table must be idempotent")
	}
	if _, ok := db.Table(other).(*treeStore); !ok {
		t.Error("tree store not used for tables without a factory")
	}
	db.Insert(pv(s, 2000, 1, 1, 1))
	db.Insert(tuple.New(other, tuple.Int(1)))
	if db.Len() != 2 {
		t.Errorf("DB.Len = %d", db.Len())
	}
	if got := db.Schemas(); len(got) != 2 || got[0] != s || got[1] != other {
		t.Errorf("Schemas = %v, want [PvWatts Other]", got)
	}
}

// TestSetStoreAfterRegisterFails: a table's store is fixed when NewDB
// builds it. Changing the factory map afterwards changes nothing — the
// table keeps its store, kind and contents — and a schema the database
// was not built with has no store: Table panics naming it, even when it
// shares a registered schema's name and ID.
func TestSetStoreAfterRegisterFails(t *testing.T) {
	s := pvSchema()
	s.SetID(0)
	factories := map[string]StoreFactory{"PvWatts": NewColumnarStore(2)}
	db := NewDB([]*tuple.Schema{s}, factories)
	for i := int64(0); i < 300; i++ {
		db.Insert(pv(s, 2000, 1+i%12, 1+i%28, i))
	}
	before := db.Table(s)
	want := Dump(before)
	factories["PvWatts"] = NewHashStore(2)
	if db.Table(s) != before || KindOf(db.Table(s)) != "columnar:2" {
		t.Fatalf("a factory set after NewDB changed the store: kind = %s", KindOf(db.Table(s)))
	}
	got := Dump(db.Table(s))
	if len(got) != len(want) {
		t.Fatalf("contents changed: %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("contents differ at %d: %v vs %v", i, got[i], want[i])
		}
	}

	twin := pvSchema()
	twin.SetID(0)
	for _, stranger := range []*tuple.Schema{twin, tuple.MustSchema("Other", []tuple.Column{{Name: "v", Kind: tuple.KindInt}}, nil)} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "table "+stranger.Name+" is not one") {
					t.Errorf("Table(%s) of an unregistered schema: panic %q", stranger.Name, msg)
				}
			}()
			db.Table(stranger)
		}()
	}
}

func TestQueryMatches(t *testing.T) {
	s := pvSchema()
	tp := pv(s, 2000, 5, 1, 99)
	if !(Query{}).Matches(tp) {
		t.Error("empty query matches everything")
	}
	if !(Query{Prefix: []tuple.Value{tuple.Int(2000), tuple.Int(5)}}).Matches(tp) {
		t.Error("prefix match")
	}
	if (Query{Prefix: []tuple.Value{tuple.Int(1999)}}).Matches(tp) {
		t.Error("prefix mismatch")
	}
	q := Query{Where: func(t *tuple.Tuple) bool { return t.Int("power") > 100 }}
	if q.Matches(tp) {
		t.Error("where mismatch")
	}
}

func matSchema() *tuple.Schema {
	return tuple.MustSchema("Matrix",
		[]tuple.Column{
			{Name: "mat", Kind: tuple.KindInt, Key: true},
			{Name: "row", Kind: tuple.KindInt, Key: true},
			{Name: "col", Kind: tuple.KindInt, Key: true},
			{Name: "value", Kind: tuple.KindInt},
		}, nil)
}

func TestDense3DTypedAndTupleAccess(t *testing.T) {
	s := matSchema()
	st := NewDense3D(3, 4, 4)(s).(*Dense3D)
	if !st.SetInt(0, 1, 2, 42) {
		t.Fatal("SetInt")
	}
	if v, ok := st.GetInt(0, 1, 2); !ok || v != 42 {
		t.Errorf("GetInt = %d, %v", v, ok)
	}
	if _, ok := st.GetInt(0, 0, 0); ok {
		t.Error("unset cell must report absent")
	}
	if !st.Insert(tuple.New(s, tuple.Int(1), tuple.Int(0), tuple.Int(0), tuple.Int(7))) {
		t.Fatal("Insert")
	}
	if st.Insert(tuple.New(s, tuple.Int(1), tuple.Int(0), tuple.Int(0), tuple.Int(7))) {
		t.Error("duplicate insert")
	}
	if st.Len() != 2 {
		t.Errorf("Len = %d", st.Len())
	}
}

func TestDense3DKeyViolationPanics(t *testing.T) {
	s := matSchema()
	st := NewDense3D(2, 2, 2)(s).(*Dense3D)
	st.Insert(tuple.New(s, tuple.Int(0), tuple.Int(0), tuple.Int(0), tuple.Int(1)))
	defer func() {
		if recover() == nil {
			t.Error("rebinding a key with a new value must panic")
		}
	}()
	st.Insert(tuple.New(s, tuple.Int(0), tuple.Int(0), tuple.Int(0), tuple.Int(2)))
}

func TestDense3DOutOfRangePanics(t *testing.T) {
	s := matSchema()
	st := NewDense3D(2, 2, 2)(s).(*Dense3D)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range index must panic")
		}
	}()
	st.SetInt(5, 0, 0, 1)
}

func TestDense3DSelectAndScan(t *testing.T) {
	s := matSchema()
	st := NewDense3D(2, 3, 3)(s).(*Dense3D)
	for r := int64(0); r < 3; r++ {
		for c := int64(0); c < 3; c++ {
			st.SetInt(0, r, c, r*3+c)
		}
	}
	// Row query: prefix (mat=0, row=1).
	var vals []int64
	st.Select(Query{Prefix: []tuple.Value{tuple.Int(0), tuple.Int(1)}},
		func(tp *tuple.Tuple) bool { vals = append(vals, tp.Int("value")); return true })
	if len(vals) != 3 || vals[0] != 3 || vals[2] != 5 {
		t.Errorf("row select = %v", vals)
	}
	n := 0
	st.Scan(func(*tuple.Tuple) bool { n++; return true })
	if n != 9 {
		t.Errorf("Scan visited %d", n)
	}
}

// Eight writers set 64 cells each, two writers to every cell, and share
// a bitmap word: each cell is newly set exactly once, and Len counts it
// once.
func TestDense3DConcurrentSet(t *testing.T) {
	s := matSchema()
	st := NewDense3D(1, 64, 64)(s).(*Dense3D)
	var wg sync.WaitGroup
	var newly atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := int64(0); r < 64; r++ {
				if st.SetInt(0, r, int64(w/2*8)+r%8, r) {
					newly.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	const cells = 4 * 64 // writers 2k and 2k+1 share their cells
	if st.Len() != cells || newly.Load() != cells {
		t.Errorf("Len() = %d and %d SetInt calls set a new cell, want %d and %d", st.Len(), newly.Load(), cells, cells)
	}
}

func dataSchema() *tuple.Schema {
	return tuple.MustSchema("Data",
		[]tuple.Column{
			{Name: "iter", Kind: tuple.KindInt, Key: true},
			{Name: "index", Kind: tuple.KindInt, Key: true},
			{Name: "value", Kind: tuple.KindFloat},
		}, nil)
}

func TestRollingFloatArrayRollsOver(t *testing.T) {
	s := dataSchema()
	st := NewRollingFloatArray(8)(s).(*RollingFloatArray)
	st.SetF(0, 3, 1.5)
	st.SetF(1, 3, 2.5)
	if st.GetF(0, 3) != 1.5 || st.GetF(1, 3) != 2.5 {
		t.Error("two iterations must coexist")
	}
	st.SetF(2, 3, 9.9) // iter 2 overwrites iter 0 (modulo-2 rolling)
	if st.GetF(2, 3) != 9.9 {
		t.Error("iter 2 readable")
	}
	if st.GetF(0, 3) != 9.9 {
		t.Error("iter 0 storage must have been recycled by iter 2")
	}
	if st.Size() != 8 {
		t.Errorf("Size = %d", st.Size())
	}
}

func TestRollingFloatArrayTupleInterface(t *testing.T) {
	s := dataSchema()
	st := NewRollingFloatArray(4)(s).(*RollingFloatArray)
	st.Insert(tuple.New(s, tuple.Int(0), tuple.Int(2), tuple.Float(7.5)))
	if st.GetF(0, 2) != 7.5 {
		t.Error("Insert must write through to the array")
	}
	var got float64
	st.Select(Query{Prefix: []tuple.Value{tuple.Int(0), tuple.Int(2)}},
		func(tp *tuple.Tuple) bool { got = tp.Float("value"); return true })
	if got != 7.5 {
		t.Errorf("Select = %v", got)
	}
	n := 0
	st.Select(Query{Prefix: []tuple.Value{tuple.Int(0)}},
		func(*tuple.Tuple) bool { n++; return true })
	if n != 4 {
		t.Errorf("iteration select visited %d cells, want 4", n)
	}
	n = 0
	st.Scan(func(*tuple.Tuple) bool { n++; return true })
	if n != 8 {
		t.Errorf("Scan visited %d cells, want 8 (2 iterations x 4)", n)
	}
}

func TestRollingFloatArrayBadIndexPanics(t *testing.T) {
	s := dataSchema()
	st := NewRollingFloatArray(4)(s).(*RollingFloatArray)
	defer func() {
		if recover() == nil {
			t.Error("index out of range must panic")
		}
	}()
	st.Insert(tuple.New(s, tuple.Int(0), tuple.Int(99), tuple.Float(0)))
}

func BenchmarkTreeStoreInsert(b *testing.B) {
	s := pvSchema()
	st := NewTreeStore(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Insert(pv(s, int64(i%3+2000), int64(i%12+1), int64(i), int64(i)))
	}
}

func BenchmarkHashStoreSelect(b *testing.B) {
	s := pvSchema()
	st := NewHashStore(2)(s)
	for i := int64(0); i < 10000; i++ {
		st.Insert(pv(s, 2000, i%12+1, i, i))
	}
	q := Query{Prefix: []tuple.Value{tuple.Int(2000), tuple.Int(6)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Select(q, func(*tuple.Tuple) bool { return true })
	}
}
