package tuple

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
)

// refTuple is a tuple as the one-layout engine kept it — its schema and its
// normalised fields as a []Value — with Tuple's methods written over that
// slice. The model test and the fuzz target hold every payload layout to it.
type refTuple struct {
	s  *Schema
	fs []Value
}

// refNew is New over a []Value; ok is false where New must panic.
func refNew(s *Schema, fields []Value) (r refTuple, ok bool) {
	if len(fields) != len(s.Columns) {
		return refTuple{}, false
	}
	fs := make([]Value, len(fields))
	for i, v := range fields {
		k, want := v.Kind(), s.Columns[i].Kind
		switch {
		case k == want:
		case k == KindInvalid:
			v = Zero(want)
		case k == KindInt && want == KindFloat:
			v = Float(float64(v.AsInt()))
		default:
			return refTuple{}, false
		}
		fs[i] = v
	}
	return refTuple{s, fs}, true
}

func (r refTuple) hash() uint64 {
	h := hashString(HashSeed, r.s.Name)
	for _, v := range r.fs {
		h = v.Hash(h)
	}
	return h
}

func (r refTuple) keys() (key, pathKey uint64) {
	hi := uint64(uint32(r.s.ID())) << 32
	key = hi
	if len(r.fs) > 0 {
		key |= uint64(fieldKey32(r.fs[0]))
	}
	pathKey = key
	if c := r.s.PathColumn(); c >= 0 {
		pathKey = hi | uint64(fieldKey32(r.fs[c]))
	}
	return key, pathKey
}

func (r refTuple) String() string {
	parts := make([]string, len(r.fs))
	for i, v := range r.fs {
		parts[i] = v.String()
	}
	return r.s.Name + "(" + strings.Join(parts, ", ") + ")"
}

func refEqual(a, b refTuple) bool {
	if a.s != b.s {
		return false
	}
	for i := range a.fs {
		if !a.fs[i].Equal(b.fs[i]) {
			return false
		}
	}
	return true
}

func refCompareFields(a, b refTuple) int {
	for i := range min(len(a.fs), len(b.fs)) {
		if c := Compare(a.fs[i], b.fs[i]); c != 0 {
			return c
		}
	}
	return len(a.fs) - len(b.fs)
}

func refCompareSchemas(a, b *Schema) int {
	if c := cmp.Compare(a.ID(), b.ID()); c != 0 {
		return c
	}
	return strings.Compare(a.Name, b.Name)
}

func refCompareSchemaFields(a, b refTuple) int {
	ka, _ := a.keys()
	kb, _ := b.keys()
	if c := cmp.Compare(ka, kb); c != 0 {
		return c
	}
	if a.s != b.s {
		if c := refCompareSchemas(a.s, b.s); c != 0 {
			return c
		}
	}
	return refCompareFields(a, b)
}

func refComparePath(a, b refTuple) int {
	_, pa := a.keys()
	_, pb := b.keys()
	if c := cmp.Compare(pa, pb); c != 0 {
		return c
	}
	if a.s != b.s {
		if c := refCompareSchemas(a.s, b.s); c != 0 {
			return c
		}
		return refCompareFields(a, b)
	}
	for i := range a.s.OrderBy {
		if col := a.s.OrderByColumn(i); col >= 0 {
			if c := Compare(a.fs[col], b.fs[col]); c != 0 {
				return c
			}
		}
	}
	return refCompareFields(a, b)
}

func refSamePath(a, b refTuple) bool {
	if a.s != b.s {
		return false
	}
	for i := range a.s.OrderBy {
		if col := a.s.OrderByColumn(i); col >= 0 && Compare(a.fs[col], b.fs[col]) != 0 {
			return false
		}
	}
	return true
}

func (r refTuple) comparePrefix(prefix []Value) int {
	for i := range prefix {
		if i >= len(r.fs) {
			return -1
		}
		if c := Compare(r.fs[i], prefix[i]); c != 0 {
			return c
		}
		if ka, kb := r.fs[i].Kind(), prefix[i].Kind(); ka != kb {
			return int(ka) - int(kb)
		}
	}
	return 0
}

func refKeyEqual(a, b refTuple) bool {
	if a.s != b.s {
		return false
	}
	for _, i := range a.s.KeyColumns() {
		if !a.fs[i].Equal(b.fs[i]) {
			return false
		}
	}
	return true
}

// newBoth builds fields into a Tuple and a refTuple, failing t unless New
// panics exactly where the reference refuses the fields.
func newBoth(t *testing.T, s *Schema, fields []Value) (*Tuple, refTuple, bool) {
	t.Helper()
	r, ok := refNew(s, fields)
	var x *Tuple
	if p := panicked(func() { x = New(s, fields...) }); p == ok {
		t.Fatalf("New(%s, %v): panicked %v, reference accepts %v", s.Name, fields, p, ok)
	}
	return x, r, ok
}

// checkEqualNew holds EqualNew to its definition: for every tuple x, each
// schema s and each field list f, x.EqualNew(s, f...) is exactly
// New(s, f...).Equal(x) — false wherever New panics.
func checkEqualNew(t *testing.T, ts []*Tuple, schemas []*Schema, lists [][]Value) {
	t.Helper()
	for _, s := range schemas {
		for _, f := range lists {
			var y *Tuple
			built := !panicked(func() { y = New(s, f...) })
			for _, x := range ts {
				if got, want := x.EqualNew(s, f...), built && y.Equal(x); got != want {
					t.Fatalf("%v.EqualNew(%s, %v) = %v, New(...).Equal says %v", x, s.Name, f, got, want)
				}
			}
		}
	}
}

// checkModel holds every method of ts to the reference refs (ts[i] is
// refs[i]): per tuple Field, Get, Hash, String, CopyOf and ComparePrefix
// against each prefix; per ordered pair Equal, CompareFields,
// CompareSchemaFields, ComparePath, SamePath and KeyEqual.
func checkModel(t *testing.T, ts []*Tuple, refs []refTuple, prefixes [][]Value) {
	t.Helper()
	for j, x := range ts {
		r := refs[j]
		for i, want := range r.fs {
			if got := x.Field(i); got.Kind() != want.Kind() || !got.Equal(want) {
				t.Fatalf("%v: Field(%d) = %v, reference %v", x, i, got, want)
			}
			if got := x.Get(r.s.Columns[i].Name); !got.Equal(want) {
				t.Fatalf("%v: Get(%s) = %v, reference %v", x, r.s.Columns[i].Name, got, want)
			}
		}
		if !panicked(func() { x.Field(len(r.fs)) }) || !panicked(func() { x.Field(-1) }) {
			t.Fatalf("%v: Field out of range did not panic", x)
		}
		if got, want := x.Hash(), r.hash(); got != want {
			t.Fatalf("%v: Hash %#x, reference %#x", x, got, want)
		}
		if got, want := x.String(), r.String(); got != want {
			t.Fatalf("String() = %s, reference %s", got, want)
		}
		if c := CopyOf(x).Build(); !c.Equal(x) || c.Hash() != x.Hash() || c.String() != x.String() {
			t.Fatalf("CopyOf(%v).Build() = %v", x, c)
		}
		for _, p := range prefixes {
			if got, want := sign(x.ComparePrefix(p)), sign(r.comparePrefix(p)); got != want {
				t.Fatalf("%v.ComparePrefix(%v) = %d, reference %d", x, p, got, want)
			}
		}
	}
	for i, a := range ts {
		for j, b := range ts {
			ra, rb := refs[i], refs[j]
			if got, want := a.Equal(b), refEqual(ra, rb); got != want {
				t.Fatalf("%v.Equal(%v) = %v, reference %v", a, b, got, want)
			}
			if got, want := sign(a.CompareFields(b)), sign(refCompareFields(ra, rb)); got != want {
				t.Fatalf("%v.CompareFields(%v) = %d, reference %d", a, b, got, want)
			}
			if got, want := sign(CompareSchemaFields(a, b)), sign(refCompareSchemaFields(ra, rb)); got != want {
				t.Fatalf("CompareSchemaFields(%v, %v) = %d, reference %d", a, b, got, want)
			}
			if got, want := sign(ComparePath(a, b)), sign(refComparePath(ra, rb)); got != want {
				t.Fatalf("ComparePath(%v, %v) = %d, reference %d", a, b, got, want)
			}
			if got, want := SamePath(a, b), refSamePath(ra, rb); got != want {
				t.Fatalf("SamePath(%v, %v) = %v, reference %v", a, b, got, want)
			}
			if got, want := a.KeyEqual(b), refKeyEqual(ra, rb); got != want {
				t.Fatalf("%v.KeyEqual(%v) = %v, reference %v", a, b, got, want)
			}
		}
	}
}

// ofKind draws a generated value of kind k.
func (g *valueGen) ofKind(k Kind) Value {
	for {
		if p := g.next(); p.v.Kind() == k {
			return p.v
		}
	}
}

// schema draws a table of one of the three payload layouts: all-scalar up
// to InlineFields columns, string-bearing up to InlineFields, or wider.
func (g *valueGen) schema(name string) *Schema {
	r := g.rng
	scalar := []Kind{KindInt, KindFloat, KindBool}
	all := []Kind{KindInt, KindFloat, KindString, KindBool}
	var kinds []Kind
	switch r.Intn(3) {
	case 0:
		for range r.Intn(InlineFields + 1) {
			kinds = append(kinds, scalar[r.Intn(len(scalar))])
		}
	case 1:
		for range 1 + r.Intn(InlineFields) {
			kinds = append(kinds, all[r.Intn(len(all))])
		}
		kinds[r.Intn(len(kinds))] = KindString
	default:
		for range InlineFields + 1 + r.Intn(2) {
			kinds = append(kinds, all[r.Intn(len(all))])
		}
	}
	cols := make([]Column, len(kinds))
	for i, k := range kinds {
		cols[i] = Column{Name: fmt.Sprintf("c%d", i), Kind: k, Key: r.Intn(3) == 0}
	}
	var ob []OrderEntry
	for range r.Intn(3) {
		switch c := fmt.Sprintf("c%d", r.Intn(max(len(kinds), 1))); {
		case len(kinds) == 0 || r.Intn(3) == 0:
			ob = append(ob, Lit("L"))
		case r.Intn(2) == 0:
			ob = append(ob, Seq(c))
		default:
			ob = append(ob, Par(c))
		}
	}
	return MustSchema(name, cols, ob)
}

// columnPool draws a few values for a column of kind k: mostly of its kind (the
// generator's floats include ±0, NaNs and ±Inf), sometimes the zero Value,
// and for a float column sometimes an int to widen. Tuples drawing from
// small pools tie on leading columns and repeat whole.
func (g *valueGen) columnPool(k Kind) []Value {
	vs := make([]Value, 3)
	for i := range vs {
		switch g.rng.Intn(6) {
		case 0:
			vs[i] = Value{}
		case 1:
			if k == KindFloat {
				vs[i] = Int(int64(g.rng.Intn(5) - 2))
				continue
			}
			fallthrough
		default:
			vs[i] = g.ofKind(k)
		}
	}
	return vs
}

// TestTupleMatchesReferenceModel: over random schemas of every payload
// layout — all-scalar words, inline Values, a wide []Value — and fields
// with ±0, NaN, ±Inf, ints in float columns and zero Values, every Tuple
// method agrees with the []Value reference, including distinct schema
// objects sharing an ID and name, and New panics exactly where the
// reference refuses the fields.
func TestTupleMatchesReferenceModel(t *testing.T) {
	g := newValueGen(40)
	var schemas []*Schema
	for i := range 10 {
		s := g.schema(fmt.Sprintf("T%d", i%7)) // T0..T2 name two schemas each
		s.SetID(int32(i % 7 % 3))
		schemas = append(schemas, s)
	}
	for _, s := range schemas[:2] { // twins: equal columns, distinct objects
		twin := MustSchema(s.Name, s.Columns, s.OrderBy)
		twin.SetID(s.ID())
		schemas = append(schemas, twin)
	}
	var ts []*Tuple
	var refs []refTuple
	var prefixes, lists [][]Value
	for _, s := range schemas {
		pools := make([][]Value, s.Arity())
		for i, c := range s.Columns {
			pools[i] = g.columnPool(c.Kind)
		}
		for range 25 {
			fields := make([]Value, s.Arity())
			for i := range fields {
				fields[i] = pools[i][g.rng.Intn(len(pools[i]))]
			}
			x, r, ok := newBoth(t, s, fields)
			if !ok {
				t.Fatalf("New(%s, %v) refused well-kinded fields", s.Name, fields)
			}
			ts, refs = append(ts, x), append(refs, r)
			lists = append(lists, fields, r.fs)
			if g.rng.Intn(4) == 0 {
				p := append([]Value(nil), r.fs[:g.rng.Intn(len(r.fs)+1)]...)
				if g.rng.Intn(2) == 0 {
					p = append(p, g.next().v) // often the wrong kind, or past the arity
				}
				prefixes = append(prefixes, p)
			}
		}
		// Arity and kind errors panic exactly as the reference refuses.
		newBoth(t, s, append(make([]Value, s.Arity()), Int(1)))
		for range 5 {
			fields := make([]Value, s.Arity())
			if len(fields) > 0 {
				fields[g.rng.Intn(len(fields))] = g.next().v
			}
			newBoth(t, s, fields)
			lists = append(lists, fields)
		}
	}
	layouts, equal := map[layout]bool{}, 0
	for _, a := range ts {
		layouts[a.schema.layout] = true
		for _, b := range ts {
			if a != b && a.Equal(b) {
				equal++
			}
		}
	}
	if len(layouts) != 3 || equal < len(ts) {
		t.Fatalf("generator drew layouts %v and %d Equal pairs among %d tuples: want all three, and repeats",
			layouts, equal, len(ts))
	}
	checkModel(t, ts, refs, prefixes)
	checkEqualNew(t, ts, schemas, lists)
}

// fuzzBytes reads a FuzzTupleLayout input; past its end every byte is 0.
type fuzzBytes []byte

func (b *fuzzBytes) byte() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

func (b *fuzzBytes) word() uint64 {
	var w [8]byte
	for i := range w {
		w[i] = b.byte()
	}
	return binary.LittleEndian.Uint64(w[:])
}

// value reads a value of kind k: an int or float from a little-endian
// word, a bool from a byte, a string as a length byte and its bytes.
func (b *fuzzBytes) value(k Kind) Value {
	switch k {
	case KindInt:
		return Int(int64(b.word()))
	case KindFloat:
		return Float(math.Float64frombits(b.word()))
	case KindBool:
		return Bool(b.byte()&1 != 0)
	}
	s := make([]byte, b.byte()%6)
	for i := range s {
		s[i] = b.byte()
	}
	return String_(string(s))
}

// kind reads a column kind.
func (b *fuzzBytes) kind() (k Kind, key bool) {
	c := b.byte()
	return Kind(c%4 + 1), c&4 != 0
}

// FuzzTupleLayout decodes a schema and up to four tuples from the input and
// holds them to the []Value reference (checkModel), and holds EqualNew to
// New(...).Equal over every decoded field list, its normalised form and a
// one-too-long copy, for the schema and a distinct twin (checkEqualNew).
// Input: an arity byte
// (mod 11); per column a kind byte (kind = b%4+1: int, double, String,
// boolean; bit 2 makes it a key); an orderby count byte (mod 3) and one
// byte per entry (b%3: literal, seq, par; column (b/3) mod arity); then
// per field a selector byte — 0 the zero Value, 1 an int word (widened in
// a float column), 2 a kind byte and a value of that kind (a kind error
// unless it matches), else a value of the column's kind. The seeds hold
// ±0, NaN, ±Inf and ±1 in a float column, an int to widen, lists equal
// only once normalised (two NaNs, ±0, an int and its float, a zero Value
// and 0.0) and a wide string-bearing table.
//
//	go test -run '^$' -fuzz '^FuzzTupleLayout$' -fuzztime 60s ./internal/tuple
func FuzzTupleLayout(f *testing.F) {
	// Arity 2: a float column, then an int key; ordered by seq on the float.
	floats := func(fs ...float64) []byte {
		b := []byte{2, 1, 4, 1, 1}
		for i, x := range fs {
			b = append(b, 3)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
			b = append(b, 3)
			b = binary.LittleEndian.AppendUint64(b, uint64(i%2))
		}
		return b
	}
	f.Add(floats(math.NaN(), math.Copysign(0, -1), 0, math.Float64frombits(0xFFF8000000000003)))
	f.Add(floats(math.Inf(1), math.Inf(-1), -1, 1))
	f.Add(floats(math.NaN(), math.Copysign(0, -1), math.Float64frombits(0xFFF8000000000003), 0)) // two equal pairs
	f.Add(floats(-1, 1, math.Copysign(0, -1), math.NaN()))
	f.Add(append([]byte{2, 1, 4, 1, 1, 1}, binary.LittleEndian.AppendUint64(nil, 3)...)) // an int in the float column
	// Four lists that are two equal pairs once normalised: (int 3, 0) and
	// (3.0, 0) by widening, (zero Value, 1) and (0.0, 1).
	word := func(sel byte, w uint64) []byte { return binary.LittleEndian.AppendUint64([]byte{sel}, w) }
	widen := []byte{2, 1, 4, 1, 1}
	for _, fs := range [][2][]byte{
		{word(1, 3), word(3, 0)},
		{word(3, math.Float64bits(3)), word(3, 0)},
		{{0}, word(3, 1)},
		{word(3, 0), word(3, 1)},
	} {
		widen = append(append(widen, fs[0]...), fs[1]...)
	}
	f.Add(widen)
	wide := []byte{10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 2, 1, 5}
	f.Add(append(wide, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 'x', 'y'))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		n := int(b.byte() % 11)
		cols := make([]Column, n)
		for i := range cols {
			k, key := b.kind()
			cols[i] = Column{Name: fmt.Sprintf("c%d", i), Kind: k, Key: key}
		}
		var ob []OrderEntry
		for range b.byte() % 3 {
			e := b.byte()
			switch c := fmt.Sprintf("c%d", int(e/3)%max(n, 1)); {
			case n == 0 || e%3 == 0:
				ob = append(ob, Lit("L"))
			case e%3 == 1:
				ob = append(ob, Seq(c))
			default:
				ob = append(ob, Par(c))
			}
		}
		s := MustSchema("F", cols, ob)
		s.SetID(int32(n))
		twin := MustSchema("F", cols, ob) // equal columns, a distinct table
		twin.SetID(int32(n))
		var ts []*Tuple
		var refs []refTuple
		var prefixes, lists [][]Value
		for range 4 {
			fields := make([]Value, n)
			for i, c := range cols {
				switch sel := b.byte(); sel % 8 {
				case 0:
				case 1:
					fields[i] = Int(int64(b.word()))
				case 2:
					k, _ := b.kind()
					fields[i] = b.value(k)
				default:
					fields[i] = b.value(c.Kind)
				}
			}
			lists = append(lists, fields, append(fields[:n:n], Int(1)))
			if x, r, ok := newBoth(t, s, fields); ok {
				ts, refs = append(ts, x), append(refs, r)
				prefixes = append(prefixes, r.fs[:len(r.fs)/2], fields)
				lists = append(lists, r.fs)
			}
		}
		checkModel(t, ts, refs, prefixes)
		checkEqualNew(t, ts, []*Schema{s, twin}, lists)
	})
}
