package tuple

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func shipSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("Ship",
		[]Column{
			{Name: "frame", Kind: KindInt, Key: true},
			{Name: "x", Kind: KindInt},
			{Name: "y", Kind: KindInt},
			{Name: "dx", Kind: KindInt},
			{Name: "dy", Kind: KindInt},
		},
		[]OrderEntry{Lit("Int"), Seq("frame")},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Int(7), KindInt},
		{Float(3.5), KindFloat},
		{String_("hi"), KindString},
		{Bool(true), KindBool},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if !c.v.Valid() {
			t.Errorf("%v: not valid", c.v)
		}
	}
	var zero Value
	if zero.Valid() {
		t.Error("zero Value should be invalid")
	}
}

func TestValueAccessors(t *testing.T) {
	if Int(42).AsInt() != 42 {
		t.Error("AsInt")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("AsFloat")
	}
	if Int(3).AsFloat() != 3.0 {
		t.Error("AsFloat should widen ints")
	}
	if String_("a").AsString() != "a" {
		t.Error("AsString")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("AsBool")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("AsInt on string", func() { String_("x").AsInt() })
	mustPanic("AsString on int", func() { Int(1).AsString() })
	mustPanic("AsBool on int", func() { Int(1).AsBool() })
	mustPanic("AsFloat on bool", func() { Bool(true).AsFloat() })
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Float(2.5), -1},
		{Int(1), Float(1.5), -1}, // mixed numeric widening
		{Float(0.5), Int(1), -1},
		{Int(2), Float(2.0), 0},
		{String_("a"), String_("b"), -1},
		{Bool(false), Bool(true), -1},
		{Value{}, Int(0), -1}, // invalid sorts first
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); sign(got) != c.want {
			t.Errorf("Compare(%v, %v) = %d, want sign %d", c.a, c.b, got, c.want)
		}
		if got := Compare(c.b, c.a); sign(got) != -c.want {
			t.Errorf("Compare(%v, %v) = %d, want sign %d", c.b, c.a, got, -c.want)
		}
	}
}

func TestValueCompareNaN(t *testing.T) {
	nan := Float(math.NaN())
	if Compare(nan, nan) != 0 {
		t.Error("NaN == NaN in total order")
	}
	if Compare(nan, Float(-1e300)) != -1 {
		t.Error("NaN must sort before all floats")
	}
	if !nan.Equal(nan) {
		t.Error("NaN must equal NaN for dedup")
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestValueEqualExact(t *testing.T) {
	if Int(2).Equal(Float(2.0)) {
		t.Error("Equal must be exact across kinds (dedup is exact)")
	}
	if !Int(2).Equal(Int(2)) || Int(2).Equal(Int(3)) {
		t.Error("int equality")
	}
	if !String_("x").Equal(String_("x")) {
		t.Error("string equality")
	}
}

func TestCompareTotalOrderProperty(t *testing.T) {
	// Compare must be antisymmetric and transitive over a mixed population.
	vals := func(x int64, f float64, s string, b bool, pick uint8) Value {
		switch pick % 4 {
		case 0:
			return Int(x)
		case 1:
			return Float(f)
		case 2:
			return String_(s)
		default:
			return Bool(b)
		}
	}
	anti := func(x1 int64, f1 float64, s1 string, b1 bool, p1 uint8,
		x2 int64, f2 float64, s2 string, b2 bool, p2 uint8) bool {
		a := vals(x1, f1, s1, b1, p1)
		b := vals(x2, f2, s2, b2, p2)
		return sign(Compare(a, b)) == -sign(Compare(b, a))
	}
	if err := quick.Check(anti, nil); err != nil {
		t.Errorf("antisymmetry: %v", err)
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema("", nil, nil); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := NewSchema("T", []Column{{Name: "a", Kind: KindInt}, {Name: "a", Kind: KindInt}}, nil); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := NewSchema("T", []Column{{Name: "a", Kind: KindInt}}, []OrderEntry{Seq("missing")}); err == nil {
		t.Error("orderby of unknown column should fail")
	}
	if _, err := NewSchema("T", []Column{{Name: "a", Kind: KindInvalid}}, nil); err == nil {
		t.Error("invalid kind should fail")
	}
	if _, err := NewSchema("T", []Column{{Name: "", Kind: KindInt}}, nil); err == nil {
		t.Error("empty column name should fail")
	}
	// A frame header carries the name in 255 bytes at most.
	if _, err := NewSchema(strings.Repeat("N", MaxNameLen), nil, nil); err != nil {
		t.Errorf("a %d-byte name: %v", MaxNameLen, err)
	}
	if _, err := NewSchema(strings.Repeat("N", MaxNameLen+1), nil, nil); err == nil || !strings.Contains(err.Error(), "256 bytes") {
		t.Errorf("a 256-byte name: err = %v, want it refused", err)
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := shipSchema(t)
	if s.Arity() != 5 {
		t.Errorf("arity = %d", s.Arity())
	}
	if s.ColumnIndex("dx") != 3 {
		t.Errorf("ColumnIndex(dx) = %d", s.ColumnIndex("dx"))
	}
	if s.ColumnIndex("nope") != -1 {
		t.Error("unknown column should be -1")
	}
	if !s.HasPrimaryKey() || len(s.KeyColumns()) != 1 || s.KeyColumns()[0] != 0 {
		t.Errorf("key columns = %v", s.KeyColumns())
	}
	if s.OrderByColumn(0) != -1 {
		t.Error("literal entry should map to -1")
	}
	if s.OrderByColumn(1) != 0 {
		t.Error("seq frame should map to column 0")
	}
}

func TestSchemaString(t *testing.T) {
	s := shipSchema(t)
	want := "table Ship(int frame -> int x, int y, int dx, int dy) orderby (Int, seq frame)"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestTupleConstructionAndAccess(t *testing.T) {
	s := shipSchema(t)
	ship := New(s, Int(0), Int(10), Int(10), Int(150), Int(0))
	if ship.Int("frame") != 0 || ship.Int("dx") != 150 {
		t.Error("field access by name")
	}
	if ship.Field(1).AsInt() != 10 {
		t.Error("field access by position")
	}
	if got := ship.String(); got != "Ship(0, 10, 10, 150, 0)" {
		t.Errorf("String() = %q", got)
	}
}

func TestTupleArityPanic(t *testing.T) {
	s := shipSchema(t)
	defer func() {
		if recover() == nil {
			t.Error("expected arity panic")
		}
	}()
	New(s, Int(0))
}

func TestTupleKindPanic(t *testing.T) {
	s := shipSchema(t)
	defer func() {
		if recover() == nil {
			t.Error("expected kind panic")
		}
	}()
	New(s, String_("oops"), Int(0), Int(0), Int(0), Int(0))
}

func TestTupleIntWidensToFloat(t *testing.T) {
	s := MustSchema("P", []Column{{Name: "v", Kind: KindFloat}}, nil)
	p := New(s, Int(3))
	if p.Float("v") != 3.0 {
		t.Error("int literal should widen into float column")
	}
}

func TestTupleEqualAndHash(t *testing.T) {
	s := shipSchema(t)
	a := New(s, Int(0), Int(10), Int(10), Int(150), Int(0))
	b := New(s, Int(0), Int(10), Int(10), Int(150), Int(0))
	c := New(s, Int(1), Int(10), Int(10), Int(150), Int(0))
	if !a.Equal(b) {
		t.Error("identical tuples must be Equal")
	}
	if a.Hash() != b.Hash() {
		t.Error("equal tuples must hash the same")
	}
	if a.Equal(c) {
		t.Error("different tuples must not be Equal")
	}
	if a.Equal(nil) {
		t.Error("Equal(nil)")
	}
	other := MustSchema("Other", []Column{
		{Name: "frame", Kind: KindInt}, {Name: "x", Kind: KindInt},
		{Name: "y", Kind: KindInt}, {Name: "dx", Kind: KindInt}, {Name: "dy", Kind: KindInt},
	}, nil)
	d := New(other, Int(0), Int(10), Int(10), Int(150), Int(0))
	if a.Equal(d) {
		t.Error("same fields in different tables are different tuples")
	}
}

func TestTupleHashDistribution(t *testing.T) {
	// Different single-field values should essentially never collide.
	s := MustSchema("N", []Column{{Name: "v", Kind: KindInt}}, nil)
	seen := make(map[uint64]bool)
	for i := int64(0); i < 10000; i++ {
		h := New(s, Int(i)).Hash()
		if seen[h] {
			t.Fatalf("hash collision at %d", i)
		}
		seen[h] = true
	}
}

func TestTupleCompareFields(t *testing.T) {
	s := shipSchema(t)
	a := New(s, Int(0), Int(10), Int(10), Int(150), Int(0))
	b := New(s, Int(0), Int(11), Int(10), Int(150), Int(0))
	if a.CompareFields(b) >= 0 || b.CompareFields(a) <= 0 {
		t.Error("CompareFields ordering")
	}
	if a.CompareFields(a) != 0 {
		t.Error("CompareFields reflexive")
	}
}

func TestTupleKeyEqual(t *testing.T) {
	s := shipSchema(t)
	a := New(s, Int(3), Int(1), Int(1), Int(0), Int(0))
	b := New(s, Int(3), Int(99), Int(99), Int(9), Int(9))
	c := New(s, Int(4), Int(1), Int(1), Int(0), Int(0))
	if !a.KeyEqual(b) {
		t.Error("same frame should be key-equal")
	}
	if a.KeyEqual(c) {
		t.Error("different frame should not be key-equal")
	}
}

func TestBuilderDefaultsAndCopy(t *testing.T) {
	s := shipSchema(t)
	// new Ship() [x=10; dx=150; y=10] — defaults for frame and dy.
	ship := NewBuilder(s).SetInt("x", 10).SetInt("dx", 150).SetInt("y", 10).Build()
	if ship.Int("frame") != 0 || ship.Int("dy") != 0 {
		t.Error("builder defaults")
	}
	if ship.Int("x") != 10 {
		t.Error("builder set")
	}
	// Copy method: take an existing tuple, update a few fields.
	moved := CopyOf(ship).SetInt("frame", 1).SetInt("x", 160).Build()
	if moved.Int("frame") != 1 || moved.Int("x") != 160 || moved.Int("dx") != 150 {
		t.Error("copy-update")
	}
	if ship.Int("frame") != 0 {
		t.Error("original must be unchanged (immutability)")
	}
}

func TestBuilderUnknownFieldPanics(t *testing.T) {
	s := shipSchema(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBuilder(s).SetInt("bogus", 1)
}

func TestBuilderTypedSetters(t *testing.T) {
	s := MustSchema("Mix", []Column{
		{Name: "i", Kind: KindInt},
		{Name: "f", Kind: KindFloat},
		{Name: "s", Kind: KindString},
		{Name: "b", Kind: KindBool},
	}, nil)
	m := NewBuilder(s).SetInt("i", 1).SetFloat("f", 2.5).SetString("s", "x").SetBool("b", true).Build()
	if m.Int("i") != 1 || m.Float("f") != 2.5 || m.Str("s") != "x" || !m.Get("b").AsBool() {
		t.Error("typed setters")
	}
}

func TestZeroValues(t *testing.T) {
	if Zero(KindInt).AsInt() != 0 || Zero(KindFloat).AsFloat() != 0 ||
		Zero(KindString).AsString() != "" || Zero(KindBool).AsBool() {
		t.Error("zero values")
	}
	if Zero(KindInvalid).Valid() {
		t.Error("Zero(invalid) should be invalid")
	}
}

func TestOrderEntryString(t *testing.T) {
	if Lit("Int").String() != "Int" || Seq("frame").String() != "seq frame" || Par("x").String() != "par x" {
		t.Error("OrderEntry.String")
	}
}

func TestKindString(t *testing.T) {
	if KindInt.String() != "int" || KindFloat.String() != "double" ||
		KindString.String() != "String" || KindBool.String() != "boolean" || KindInvalid.String() != "invalid" {
		t.Error("Kind.String")
	}
}
