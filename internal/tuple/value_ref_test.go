package tuple

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"github.com/jstar-lang/jstar/internal/testrace"
)

// refValue is the 40-byte struct Value used to be (kind + int + float +
// string header), kept with its methods as the reference model the
// two-word layout must agree with.
type refValue struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

func (v refValue) asInt() int64 {
	if v.kind != KindInt {
		panic("not int")
	}
	return v.i
}

func (v refValue) asFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	}
	panic("not numeric")
}

func (v refValue) asString() string {
	if v.kind != KindString {
		panic("not String")
	}
	return v.s
}

func (v refValue) asBool() bool {
	if v.kind != KindBool {
		panic("not boolean")
	}
	return v.i != 0
}

func (v refValue) isNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

func refCompare(a, b refValue) int {
	if a.kind == KindInvalid || b.kind == KindInvalid {
		return int(boolToInt(a.kind != KindInvalid)) - int(boolToInt(b.kind != KindInvalid))
	}
	if a.isNumeric() && b.isNumeric() && a.kind != b.kind {
		return compareFloat(a.asFloat(), b.asFloat())
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindInt, KindBool:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		}
		return 0
	case KindFloat:
		return compareFloat(a.f, b.f)
	case KindString:
		return strings.Compare(a.s, b.s)
	}
	return 0
}

func boolToInt(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func (v refValue) equal(o refValue) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindString:
		return v.s == o.s
	case KindFloat:
		return v.f == o.f || (math.IsNaN(v.f) && math.IsNaN(o.f))
	default:
		return v.i == o.i
	}
}

func (v refValue) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	}
	return "<invalid>"
}

func refFieldKey32(v refValue) uint32 {
	switch v.kind {
	case KindInt:
		const lo = -1 << 31
		if v.i < lo {
			return 0
		}
		if v.i > 1<<31-1 {
			return ^uint32(0)
		}
		return uint32(v.i - lo)
	case KindBool:
		return uint32(v.i)
	case KindFloat:
		if math.IsNaN(v.f) {
			return 0
		}
		if v.f == 0 {
			v.f = 0
		}
		bits := math.Float64bits(v.f)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		return uint32(bits >> 32)
	case KindString:
		var k uint32
		for i := 0; i < 4; i++ {
			k <<= 8
			if i < len(v.s) {
				k |= uint32(v.s[i])
			}
		}
		return k
	}
	return 0
}

// canonical is the reference value as Float now stores it: -0.0 is +0.0
// and every NaN is math.NaN(). Only String and AsFloat can tell the two
// apart; Compare, Equal and fieldKey32 never could.
func (v refValue) canonical() refValue {
	if v.kind == KindFloat {
		if v.f == 0 {
			v.f = 0
		} else if math.IsNaN(v.f) {
			v.f = math.NaN()
		}
	}
	return v
}

// pair is one generated value in both representations.
type pair struct {
	v   Value
	ref refValue
}

// valueGen draws seeded random values of every kind, weighted toward the
// edges: the int extremes; ±Inf, NaNs with distinct payloads, ±0 and
// subnormals; "", "\x00", non-UTF-8, long strings, and substrings sharing
// one backing array (equal strings at distinct addresses, and prefixes at
// one address); both bools; and the invalid value.
type valueGen struct {
	rng  *rand.Rand
	pool string // one backing array that substrings are cut from
}

func newValueGen(seed int64) *valueGen {
	g := &valueGen{rng: rand.New(rand.NewSource(seed))}
	var b strings.Builder
	for i := 0; i < 4; i++ {
		b.WriteString("abcab\x00\xff\xfe") // repeats: equal substrings, distinct addresses
	}
	b.WriteString(strings.Repeat("z", 300))
	g.pool = b.String()
	return g
}

func (g *valueGen) float() float64 {
	r := g.rng
	switch r.Intn(9) {
	case 0:
		return math.Float64frombits(0x7FF0000000000001 + uint64(r.Intn(1<<20))<<20) // NaN payloads
	case 1:
		return math.Float64frombits(0xFFF8000000000000 | uint64(r.Intn(8))) // negative NaNs
	case 2:
		return math.Inf(1 - 2*r.Intn(2))
	case 3:
		return math.Copysign(0, float64(1-2*r.Intn(2)))
	case 4:
		return math.Float64frombits(uint64(r.Intn(1000))) * float64(1-2*r.Intn(2)) // subnormals
	case 5:
		return float64(r.Intn(7) - 3)
	default:
		return (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(40)-20))
	}
}

func (g *valueGen) string() string {
	r := g.rng
	switch r.Intn(7) {
	case 0:
		return ""
	case 1:
		return "\x00"
	case 2:
		return string([]byte{0xff, byte(r.Intn(256)), 0xc0}) // not UTF-8
	case 3:
		return strings.Repeat(string(rune('a'+r.Intn(3))), 100+r.Intn(200))
	case 4:
		b := make([]byte, r.Intn(6)) // a fresh backing array
		for i := range b {
			b[i] = "abc\x00"[r.Intn(4)]
		}
		return string(b)
	default:
		i := r.Intn(len(g.pool))
		return g.pool[i : i+r.Intn(min(len(g.pool)-i, 12)+1)]
	}
}

func (g *valueGen) next() pair {
	r := g.rng
	switch r.Intn(5) {
	case 0:
		var x int64
		switch r.Intn(4) {
		case 0:
			x = math.MinInt64 + int64(r.Intn(3))
		case 1:
			x = math.MaxInt64 - int64(r.Intn(3))
		case 2:
			x = r.Int63() - r.Int63()
		default:
			x = int64(r.Intn(9) - 4)
		}
		return pair{Int(x), refValue{kind: KindInt, i: x}}
	case 1:
		f := g.float()
		return pair{Float(f), refValue{kind: KindFloat, f: f}}
	case 2:
		s := g.string()
		return pair{String_(s), refValue{kind: KindString, s: s}}
	case 3:
		b := r.Intn(2) == 0
		return pair{Bool(b), refValue{kind: KindBool, i: int64(boolToInt(b))}}
	}
	return pair{}
}

// panicked runs f and returns whether it panicked.
func panicked(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// TestValueMatchesReferenceModel: over seeded random values, the two-word
// Value agrees with the 40-byte reference on Kind, Compare, Equal, String,
// every AsX (including which ones panic) and fieldKey32; Equal implies
// the same Hash; and fieldKey32 never contradicts Compare within a kind.
func TestValueMatchesReferenceModel(t *testing.T) {
	g := newValueGen(25)
	vals := make([]pair, 600)
	for i := range vals {
		vals[i] = g.next()
	}
	for _, x := range vals {
		v, ref, canon := x.v, x.ref, x.ref.canonical()
		if v.Kind() != ref.kind || v.Valid() != (ref.kind != KindInvalid) || v.IsNumeric() != ref.isNumeric() {
			t.Fatalf("%v: Kind %v Valid %v, reference %v", v, v.Kind(), v.Valid(), ref.kind)
		}
		if got, want := v.String(), canon.String(); got != want {
			t.Errorf("String() = %s, reference %s", got, want)
		}
		if fieldKey32(v) != refFieldKey32(ref) {
			t.Errorf("%v: fieldKey32 %#x, reference %#x", v, fieldKey32(v), refFieldKey32(ref))
		}
		var gi, ri int64
		if p, rp := panicked(func() { gi = v.AsInt() }), panicked(func() { ri = ref.asInt() }); p != rp || gi != ri {
			t.Errorf("%v: AsInt = %d (panic %v), reference %d (panic %v)", v, gi, p, ri, rp)
		}
		var gf, rf float64
		if p, rp := panicked(func() { gf = v.AsFloat() }), panicked(func() { rf = canon.asFloat() }); p != rp ||
			math.Float64bits(gf) != math.Float64bits(rf) {
			t.Errorf("%v: AsFloat = %v (panic %v), reference %v (panic %v)", v, gf, p, rf, rp)
		}
		var gs, rs string
		if p, rp := panicked(func() { gs = v.AsString() }), panicked(func() { rs = ref.asString() }); p != rp || gs != rs {
			t.Errorf("%v: AsString = %q (panic %v), reference %q (panic %v)", v, gs, p, rs, rp)
		}
		var gb, rb bool
		if p, rp := panicked(func() { gb = v.AsBool() }), panicked(func() { rb = ref.asBool() }); p != rp || gb != rb {
			t.Errorf("%v: AsBool = %v (panic %v), reference %v (panic %v)", v, gb, p, rb, rp)
		}
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := sign(Compare(a.v, b.v)), sign(refCompare(a.ref, b.ref)); got != want {
				t.Fatalf("Compare(%v, %v) = %d, reference %d", a.v, b.v, got, want)
			}
			eq := a.v.Equal(b.v)
			if eq != a.ref.equal(b.ref) {
				t.Fatalf("Equal(%v, %v) = %v, reference %v", a.v, b.v, eq, !eq)
			}
			if eq && a.v.Hash(HashSeed) != b.v.Hash(HashSeed) {
				t.Fatalf("%v and %v are Equal but hash apart", a.v, b.v)
			}
			if a.v.Kind() == b.v.Kind() {
				ka, kb := fieldKey32(a.v), fieldKey32(b.v)
				if c := Compare(a.v, b.v); ka < kb && c >= 0 || ka > kb && c <= 0 {
					t.Fatalf("fieldKey32 contradicts Compare: %v (%#x) vs %v (%#x)", a.v, ka, b.v, kb)
				}
			}
		}
	}
}

// TestFloatIsCanonical: -0.0 and +0.0 are one Value, and so is every NaN —
// equal words, equal hashes, equal tuples — while Compare and Equal say
// what they always said about them.
func TestFloatIsCanonical(t *testing.T) {
	nans := []float64{math.NaN(), math.Float64frombits(0x7FF8000000000002),
		math.Float64frombits(0xFFF0000000000001), math.Float64frombits(0x7FF0000000000007)}
	classes := [][]float64{{0, math.Copysign(0, -1)}, nans}
	s := MustSchema("F", []Column{{Name: "v", Kind: KindFloat}}, nil)
	for _, class := range classes {
		first := Float(class[0])
		for _, f := range class {
			v := Float(f)
			if v.p != first.p || v.n != first.n || !v.Equal(first) || Compare(v, first) != 0 {
				t.Errorf("Float(%#x) = {%p, %#x}, want {%p, %#x}", math.Float64bits(f), v.p, v.n, first.p, first.n)
			}
			if a, b := New(s, v), New(s, first); !a.Equal(b) || a.Hash() != b.Hash() {
				t.Errorf("tuples of %#x and %#x differ", math.Float64bits(f), math.Float64bits(class[0]))
			}
		}
	}
	if math.Signbit(Float(math.Copysign(0, -1)).AsFloat()) {
		t.Error("-0.0 kept its sign")
	}
}

// TestTupleEqualImpliesHash: tuples built from independently generated
// field lists hash alike whenever they are Equal — across canonicalised
// floats and strings at distinct addresses.
func TestTupleEqualImpliesHash(t *testing.T) {
	s := MustSchema("H", []Column{{Name: "a", Kind: KindString}, {Name: "b", Kind: KindFloat}}, nil)
	g := newValueGen(7)
	var ts []*Tuple
	for len(ts) < 400 {
		a, b := g.next(), g.next()
		if a.v.Kind() == KindString && b.v.Kind() == KindFloat {
			ts = append(ts, New(s, a.v, b.v))
		}
	}
	equalPairs := 0
	for _, a := range ts {
		for _, b := range ts {
			if a.Equal(b) {
				equalPairs++
				if a.Hash() != b.Hash() {
					t.Fatalf("%v and %v are Equal but hash apart", a, b)
				}
			}
		}
	}
	if equalPairs <= len(ts) {
		t.Fatalf("only %d Equal pairs among %d tuples: the generator no longer produces duplicates", equalPairs, len(ts))
	}
}

// TestValueFootprint pins the layout: a Value is two words, a tuple
// header is four with the schema its only pointer, and a 4-int tuple is
// one allocation of at most 64 bytes — the header and four payload words
// (128 with a Value per column, 224 with the old 40-byte Value). Every
// all-scalar arity up to InlineFields is one object of the header plus a
// word per column, rounded up to its size class.
func TestValueFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
	if got := unsafe.Sizeof(Tuple{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Tuple{}) = %d, want 32", got)
	}
	h := reflect.TypeFor[Tuple]()
	for i := 0; i < h.NumField(); i++ {
		if f := h.Field(i); f.Type.Kind() != reflect.Uint64 && f.Name != "schema" {
			t.Errorf("tuple header field %s is a %v: only the schema may be a pointer", f.Name, f.Type)
		}
	}
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := MustSchema("Q", []Column{{Name: "a", Kind: KindInt}, {Name: "b", Kind: KindInt},
		{Name: "c", Kind: KindInt}, {Name: "d", Kind: KindInt}}, nil)
	var sink *Tuple
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = New(s, Int(int64(i)), Int(1), Int(2), Int(3))
		}
	})
	_ = sink
	if res.AllocsPerOp() != 1 || res.AllocedBytesPerOp() > 64 {
		t.Errorf("New on a 4-int schema: %d allocations, %d bytes; want 1 of at most 64",
			res.AllocsPerOp(), res.AllocedBytesPerOp())
	}
	f := families[1] // int, float, bool
	for n := 0; n <= InlineFields; n++ {
		s, fs := f.schema(n), f.fields(n)
		if s.layout != layoutWords {
			t.Fatalf("all-scalar arity %d: layout %d, want words", n, s.layout)
		}
		const runs = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			sink = New(s, fs...)
		}
		runtime.ReadMemStats(&after)
		objs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		if want := uint64(32+8*n+15) &^ 15; objs != runs || bytes > runs*want {
			t.Errorf("all-scalar arity %d: %d objects, %d bytes per %d tuples; want one of at most %d bytes each",
				n, objs, bytes, runs, want)
		}
	}
}
