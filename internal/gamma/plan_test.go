package gamma

import (
	"strings"
	"testing"

	"github.com/jstar-lang/jstar/internal/tuple"
)

func TestFactoryForResolvesEveryKind(t *testing.T) {
	pv := pvSchema() // 4 int columns
	data := dataSchema()
	cases := []struct {
		spec string
		s    *tuple.Schema
		want string // expected KindOf of the built store
	}{
		{"tree", pv, "tree"},
		{"hash", pv, "hash:1"},
		{"hash:2", pv, "hash:2"},
		{"columnar", pv, "columnar"},
		{"columnar:1", pv, "columnar"},
		{"columnar:3", pv, "columnar:3"},
		{"columnar:2", data, "columnar:2"},
		{"arrayhash:1,1,12", pv, "arrayhash:1,1,12"},
		{"dense3d:3,4,5", matSchema(), "dense3d:3,4,5"},
		{"rolling:8", data, "rolling:8"},
	}
	for _, c := range cases {
		f, err := FactoryFor(c.spec, c.s)
		if err != nil {
			t.Errorf("FactoryFor(%q): %v", c.spec, err)
			continue
		}
		if got := KindOf(f(c.s)); got != c.want {
			t.Errorf("FactoryFor(%q) built kind %q, want %q", c.spec, got, c.want)
		}
	}
}

// TestFactoryForKindOfRoundTrip: a store's reported kind must rebuild an
// equivalent store — the property saved plans rely on when replayed.
func TestFactoryForKindOfRoundTrip(t *testing.T) {
	s := pvSchema()
	for _, f := range []StoreFactory{
		NewTreeStore, NewHashStore(2), NewColumnarStore(2),
		NewColumnarStore(1), NewArrayOfHashSets(1, 1, 12),
	} {
		spec := KindOf(f(s))
		f2, err := FactoryFor(spec, s)
		if err != nil {
			t.Fatalf("round trip of %q: %v", spec, err)
		}
		if got := KindOf(f2(s)); got != spec {
			t.Errorf("round trip of %q rebuilt %q", spec, got)
		}
	}
}

func TestFactoryForRejections(t *testing.T) {
	pv := pvSchema()
	str := tuple.MustSchema("S",
		[]tuple.Column{{Name: "name", Kind: tuple.KindString}, {Name: "v", Kind: tuple.KindInt}}, nil)
	cases := []struct {
		spec string
		s    *tuple.Schema
		want string // substring of the error
	}{
		{"btree", pv, "unknown store kind"},
		{"btree", pv, "tree|hash|columnar|arrayhash|dense3d|rolling"},
		{"inthash:1", pv, "unknown store kind"}, // folded into columnar:k
		{"skip", pv, "unknown store kind"},      // not a kind: "tree" is the one ordered store
		{"tree@1", pv, "unknown store kind"},    // the deleted owner-shard suffix is no syntax at all
		{"@2", pv, "unknown store kind"},
		{"hash:2@1", pv, "not an integer"},
		{"tree:2", pv, "no parameters"}, // a typo'd "hash:2" must not silently run unindexed
		{"hash:0", pv, "out of range"},
		{"hash:9", pv, "out of range"},
		{"hash:x", pv, "not an integer"},
		{"columnar:0", pv, "out of range"},
		{"columnar:5", pv, "out of range"},
		{"columnar:1,2", pv, "at most one parameter"},
		{"arrayhash:1", pv, "needs 3 parameters"},
		{"arrayhash:0,5,1", pv, "empty range"},
		{"dense3d:2,2,2", str, "4-column all-int"},
		{"rolling:4", pv, "(int, int -> double)"},
	}
	for _, c := range cases {
		_, err := FactoryFor(c.spec, c.s)
		if err == nil {
			t.Errorf("FactoryFor(%q, %s): expected error", c.spec, c.s.Name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("FactoryFor(%q) error %q missing %q", c.spec, err, c.want)
		}
	}
}

func TestKindNameAndKinds(t *testing.T) {
	if KindName("hash:2") != "hash" || KindName("tree") != "tree" {
		t.Error("KindName must strip parameters")
	}
	kinds := StoreKinds()
	if len(kinds) != 6 {
		t.Errorf("StoreKinds lists %d kinds, want 6", len(kinds))
	}
	for _, k := range kinds {
		if _, err := FactoryFor(k, pvSchema()); err != nil && KindName(k) == k &&
			k != "arrayhash" && k != "dense3d" && k != "rolling" {
			t.Errorf("parameterless kind %q must resolve on an all-int table: %v", k, err)
		}
	}
}

func TestColumnarStringDictionary(t *testing.T) {
	s := tuple.MustSchema("Log",
		[]tuple.Column{
			{Name: "level", Kind: tuple.KindString},
			{Name: "n", Kind: tuple.KindInt},
			{Name: "ok", Kind: tuple.KindBool},
			{Name: "f", Kind: tuple.KindFloat},
		}, nil)
	st := NewColumnarStore(1)(s).(*colStore)
	for i := int64(0); i < 100; i++ {
		lvl := "info"
		if i%10 == 0 {
			lvl = "warn"
		}
		if !st.Insert(tuple.New(s, tuple.String_(lvl), tuple.Int(i), tuple.Bool(i%2 == 0), tuple.Float(float64(i)/2))) {
			t.Fatalf("insert %d", i)
		}
	}
	if st.Insert(tuple.New(s, tuple.String_("info"), tuple.Int(1), tuple.Bool(false), tuple.Float(0.5))) {
		t.Error("duplicate insert must return false")
	}
	if len(st.strs) != 2 {
		t.Errorf("dictionary holds %d strings, want 2 (info, warn)", len(st.strs))
	}
	n := 0
	st.Select(Query{Prefix: []tuple.Value{tuple.String_("warn")}}, func(tp *tuple.Tuple) bool {
		if tp.Str("level") != "warn" || tp.Int("n") != int64(10*n) {
			t.Errorf("warn select visit %d: %v, want n=%d in insertion order", n, tp, 10*n)
		}
		n++
		return true
	})
	if n != 10 {
		t.Errorf("warn select matched %d, want 10", n)
	}
	// A two-column string-leading prefix walks the "info" chain and keeps
	// the one row whose n matches.
	if got := selected(st, Query{Prefix: []tuple.Value{tuple.String_("info"), tuple.Int(37)}}); len(got) != 1 ||
		got[0] != tuple.New(s, tuple.String_("info"), tuple.Int(37), tuple.Bool(false), tuple.Float(18.5)).String() {
		t.Errorf("Select(info, 37) = %v, want the one row n=37", got)
	}
	// A string absent from the dictionary — and a prefix value of the wrong
	// kind for its column — can never match; both must short-circuit.
	for _, q := range []Query{
		{Prefix: []tuple.Value{tuple.String_("error")}},
		{Prefix: []tuple.Value{tuple.Int(3)}},
	} {
		n = 0
		st.Select(q, func(*tuple.Tuple) bool { n++; return true })
		if n != 0 {
			t.Errorf("impossible prefix %v matched %d rows", q.Prefix, n)
		}
	}
	if st.Len() != 100 {
		t.Errorf("Len = %d", st.Len())
	}

	// Keyed on (level, n), the same rows answer the two-column prefix from
	// one exact chain, and a level alone by a scan in insertion order.
	st2 := NewColumnarStore(2)(s)
	st.Scan(func(tp *tuple.Tuple) bool { st2.Insert(tp); return true })
	if got := selected(st2, Query{Prefix: []tuple.Value{tuple.String_("info"), tuple.Int(37)}}); len(got) != 1 {
		t.Errorf("columnar:2 Select(info, 37) = %v, want the one row n=37", got)
	}
	if got := selected(st2, Query{Prefix: []tuple.Value{tuple.String_("warn")}}); len(got) != 10 ||
		got[9] != tuple.New(s, tuple.String_("warn"), tuple.Int(90), tuple.Bool(true), tuple.Float(45)).String() {
		t.Errorf("columnar:2 Select(warn) = %v, want the 10 warn rows in insertion order", got)
	}
	if got := selected(st2, Query{Prefix: []tuple.Value{tuple.String_("error"), tuple.Int(1)}}); len(got) != 0 {
		t.Errorf("columnar:2 Select(error, 1) = %v, want nothing", got)
	}
}

// TestColumnarZeroColumns: a table with no columns holds at most one row,
// the empty tuple; columnar stores it like any other, and its kind round
// trips.
func TestColumnarZeroColumns(t *testing.T) {
	s := tuple.MustSchema("Tick", nil, nil)
	f, err := FactoryFor("columnar", s)
	if err != nil {
		t.Fatal(err)
	}
	st := f(s)
	if !st.Insert(tuple.New(s)) || st.Insert(tuple.New(s)) || st.Len() != 1 {
		t.Fatalf("inserts of the empty tuple: Len %d, want 1", st.Len())
	}
	if got := selected(st, Query{}); len(got) != 1 || KindOf(st) != "columnar" {
		t.Errorf("Select() = %v, kind %q; want the one row, columnar", got, KindOf(st))
	}
	if _, err := FactoryFor("columnar:2", s); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf(`FactoryFor("columnar:2") on a zero-column table: %v`, err)
	}
}

// TestColumnarKeyedGrowth forces open-addressing table growth and chain
// reuse on a columnar store keyed on two columns, with and without every
// key folded onto sixteen hashes: an exact-key Select walks one key's rows
// only, and a longer prefix filters that chain.
func TestColumnarKeyedGrowth(t *testing.T) {
	s := pvSchema()
	for _, mask := range []uint64{^uint64(0), 0xF} {
		st := NewColumnarStore(2)(s)
		setHashMask(st, mask)
		const years, months, days = 20, 12, 28
		for y := int64(0); y < years; y++ {
			for m := int64(1); m <= months; m++ {
				for d := int64(1); d <= days; d++ {
					if !st.Insert(pv(s, y, m, d, y*100+m)) {
						t.Fatalf("insert (%d,%d,%d)", y, m, d)
					}
					if st.Insert(pv(s, y, m, d, y*100+m)) {
						t.Fatalf("duplicate (%d,%d,%d) accepted", y, m, d)
					}
				}
			}
		}
		if st.Len() != years*months*days {
			t.Fatalf("Len = %d, want %d", st.Len(), years*months*days)
		}
		for y := int64(0); y < years; y++ {
			var days []int64
			st.Select(Query{Prefix: []tuple.Value{tuple.Int(y), tuple.Int(6)}},
				func(tp *tuple.Tuple) bool { days = append(days, tp.Int("day")); return true })
			if len(days) != 28 || days[0] != 1 || days[27] != 28 {
				t.Fatalf("mask %#x, year %d month 6: days %v, want 1..28 in insertion order", mask, y, days)
			}
			if got := selected(st, Query{Prefix: []tuple.Value{tuple.Int(y), tuple.Int(6), tuple.Int(9)}}); len(got) != 1 {
				t.Fatalf("mask %#x, (%d, 6, 9): %v, want one row", mask, y, got)
			}
		}
		// A non-int prefix value can never match an all-int table.
		n := 0
		st.Select(Query{Prefix: []tuple.Value{tuple.String_("x"), tuple.Int(6)}},
			func(*tuple.Tuple) bool { n++; return true })
		if n != 0 {
			t.Errorf("non-int prefix matched %d tuples", n)
		}
	}
}
