// Package tuple defines the immutable data model of JStar: typed Values,
// relation Schemas with orderby lists, and Tuples (immutable rows).
//
// Everything a JStar program computes is a tuple in some relation. Tuples are
// never mutated after construction; "updating" data means putting a new tuple
// with a later timestamp (see the law of causality, paper §4).
package tuple

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the primitive column types supported by JStar relations.
type Kind uint8

const (
	KindInvalid Kind = iota
	KindInt          // 64-bit signed integer
	KindFloat        // 64-bit IEEE float
	KindString       // immutable string
	KindBool         // boolean
)

// String returns the JStar surface-syntax name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "double"
	case KindString:
		return "String"
	case KindBool:
		return "boolean"
	default:
		return "invalid"
	}
}

// Value is an immutable tagged union holding one column value, in two
// words (16 bytes): the paper's §6.1 lesson is that value representation
// decides speed, and every tuple carries one Value per column. The zero
// Value has KindInvalid and compares before every valid value.
//
// The invariant, on which every method relies:
//
//   - p is nil for the invalid zero value;
//   - for an int, float or bool, p points at the sentinel tags[kind] and n
//     holds the payload: the int's two's complement, the bool as 0/1, the
//     float's IEEE bits — canonical ones, since Float maps -0.0 to +0.0 and
//     every NaN to one quiet NaN;
//   - for a string, p is the string's data pointer and n its length; the
//     empty string uses the sentinel tags[KindString] instead.
//
// So p is nil, a sentinel or string data — never an integer smuggled in as
// a pointer — and the GC sees every string a Value holds. String_ keeps
// its argument's backing array; nothing in this package builds a string
// with unsafe.String over a buffer that is later reused. Values do not
// support ==, which would compare string pointers: use Equal.
type Value struct {
	_ [0]func() // not comparable
	p unsafe.Pointer
	n uint64
}

// tags holds one sentinel byte per kind; a non-string Value points at its
// kind's byte, so Kind is a range check on the pointer. (tags[KindInvalid]
// is unused: the invalid value's p is nil.)
var tags [KindBool + 1]byte

// tag returns the sentinel pointer of kind k.
func tag(k Kind) unsafe.Pointer { return unsafe.Pointer(&tags[k]) }

// canonicalNaN is the one NaN a float Value holds (math.NaN's bits).
const canonicalNaN = 0x7FF8000000000001

// Int returns an integer Value.
func Int(v int64) Value { return Value{p: tag(KindInt), n: uint64(v)} }

// Float returns a floating-point Value. It canonicalises -0.0 to +0.0 and
// every NaN to one quiet NaN, so values that Compare equal have equal bits:
// Equal is then a two-word compare and equal floats hash alike in every
// store. Every float enters a Value here, decoders included.
func Float(v float64) Value {
	bits := math.Float64bits(v)
	switch {
	case v == 0:
		bits = 0
	case v != v:
		bits = canonicalNaN
	}
	return Value{p: tag(KindFloat), n: bits}
}

// String_ returns a string Value. (Named with a trailing underscore because
// String is reserved for fmt.Stringer.)
func String_(v string) Value {
	if len(v) == 0 {
		return Value{p: tag(KindString)}
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), n: uint64(len(v))}
}

// Bool returns a boolean Value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{p: tag(KindBool), n: n}
}

// Kind reports the dynamic type of the value.
func (v Value) Kind() Kind {
	if d := uintptr(v.p) - uintptr(unsafe.Pointer(&tags)); d < uintptr(len(tags)) {
		return Kind(d)
	}
	if v.p == nil {
		return KindInvalid
	}
	return KindString
}

// str returns the string payload of a value known to be a string.
func (v Value) str() string {
	if v.n == 0 {
		return ""
	}
	return unsafe.String((*byte)(v.p), int(v.n))
}

// float returns the float payload of a value known to be a float.
func (v Value) float() float64 { return math.Float64frombits(v.n) }

// castPanic reports a failed AsX cast. It is kept out of line so that the
// accessors inline into rule bodies.
//
//go:noinline
func castPanic(v Value, want string) {
	panic(fmt.Sprintf("jstar: value %v is not %s", v, want))
}

// AsInt returns the integer payload. It panics if the value is not an int,
// mirroring a failed cast in the generated Java code.
func (v Value) AsInt() int64 {
	if v.p != tag(KindInt) {
		castPanic(v, "int")
	}
	return int64(v.n)
}

// AsFloat returns the float payload, widening ints (JStar follows Java's
// implicit numeric widening in expressions).
func (v Value) AsFloat() float64 {
	switch v.p {
	case tag(KindFloat):
		return v.float()
	case tag(KindInt):
		return float64(int64(v.n))
	}
	castPanic(v, "numeric")
	return 0
}

// AsString returns the string payload; it panics for non-strings.
func (v Value) AsString() string {
	if v.Kind() != KindString {
		castPanic(v, "String")
	}
	return v.str()
}

// AsBool returns the boolean payload; it panics for non-booleans.
func (v Value) AsBool() bool {
	if v.p != tag(KindBool) {
		castPanic(v, "boolean")
	}
	return v.n != 0
}

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool { return v.p == tag(KindInt) || v.p == tag(KindFloat) }

// Valid reports whether the value holds a real payload.
func (v Value) Valid() bool { return v.p != nil }

// Compare orders two values. Invalid < everything; mixed numeric kinds are
// compared numerically (int widened to float); otherwise kinds must match.
// Bools order false < true. NaN sorts before all other floats so that
// ordering is total (required by the Delta tree and NavigableSet stores).
func Compare(a, b Value) int {
	ka, kb := a.Kind(), b.Kind()
	if ka != kb {
		switch {
		case ka == KindInvalid:
			return -1
		case kb == KindInvalid:
			return 1
		case a.IsNumeric() && b.IsNumeric():
			return compareFloat(a.AsFloat(), b.AsFloat())
		}
		// Total order across kinds: by kind tag. Heterogeneous comparisons
		// only arise in the Delta tree when distinct tables share a level.
		return cmp.Compare(ka, kb)
	}
	switch ka {
	case KindInt:
		return cmp.Compare(int64(a.n), int64(b.n))
	case KindBool:
		return cmp.Compare(a.n, b.n)
	case KindFloat:
		return compareFloat(a.float(), b.float())
	case KindString:
		return strings.Compare(a.str(), b.str())
	}
	return 0
}

func compareFloat(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Equal reports exact equality (same kind, same payload). Unlike Compare it
// never treats an int and float as equal, so tuple dedup is exact. Floats
// are canonical, so a non-string is equal exactly when both words are;
// strings with distinct data pointers compare their bytes.
func (v Value) Equal(o Value) bool {
	if v.p == o.p {
		return v.n == o.n
	}
	return v.n == o.n && equalStrings(v, o)
}

// equalStrings is Equal's out-of-line case: same length, distinct
// pointers — equal only when both are strings with the same bytes.
func equalStrings(v, o Value) bool {
	return v.Kind() == KindString && o.Kind() == KindString && v.str() == o.str()
}

// Hash folds the value into an FNV-1a style 64-bit hash seed: the kind
// byte, then a string's bytes or a non-string's payload word in one
// multiply-xor.
func (v Value) Hash(h uint64) uint64 {
	k := v.Kind()
	h = hashByte(h, byte(k))
	if k == KindString {
		return hashString(h, v.str())
	}
	return hashWord(h, v.n)
}

// fieldKey32 encodes v as an order-preserving (but non-injective) 32-bit
// prefix: for values of one kind, fieldKey32(a) < fieldKey32(b) implies
// Compare(a, b) < 0, so a 64-bit sort key can resolve most comparisons
// without touching the Value — key ties fall back to the full comparator.
// Columns have a fixed kind, so cross-kind consistency is not required.
func fieldKey32(v Value) uint32 {
	switch v.Kind() {
	case KindInt:
		// Exact biased encoding for the common 32-bit range; out-of-range
		// values clamp (clamped neighbours tie and fall back).
		const lo = -1 << 31
		i := int64(v.n)
		if i < lo {
			return 0
		}
		if i > 1<<31-1 {
			return ^uint32(0)
		}
		return uint32(i - lo)
	case KindBool:
		return uint32(v.n)
	case KindFloat:
		bits := v.n // canonical: no -0.0, one NaN
		if bits == canonicalNaN {
			return 0 // NaN sorts before all other floats (Compare's rule)
		}
		if bits&(1<<63) != 0 {
			bits = ^bits // negative: flip all so magnitude order reverses
		} else {
			bits |= 1 << 63 // positive: set sign so it sorts after negatives
		}
		return uint32(bits >> 32)
	case KindString:
		var k uint32
		s := v.str()
		for i := 0; i < 4; i++ {
			k <<= 8
			if i < len(s) {
				k |= uint32(s[i])
			}
		}
		return k
	}
	return 0 // invalid sorts before every valid value
}

const (
	fnvOffset = 1469598103934665603
	fnvPrime  = 1099511628211
	// wordMul is the odd multiplier of hashWord (2^64 / golden ratio).
	wordMul = 0x9E3779B97F4A7C15
)

func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// hashWord folds a 64-bit payload into h: one multiply, and an xor-shift
// that carries its high bits down to the low bits hash tables mask with.
// It is a bijection of w for fixed h, so single-word keys never collide.
func hashWord(h, w uint64) uint64 {
	h = (h ^ w) * wordMul
	return h ^ h>>32
}

// hashString folds a string's bytes into h.
func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = hashByte(h, s[i])
	}
	return h
}

// HashSeed is the initial seed for Value.Hash chains.
const HashSeed uint64 = fnvOffset

// String renders the value in JStar literal syntax.
func (v Value) String() string {
	switch v.Kind() {
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.str())
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	default:
		return "<invalid>"
	}
}

// Zero returns the default value for a kind, used when a builder omits a
// field ("use default values for frame and dy", paper §3).
func Zero(k Kind) Value {
	switch k {
	case KindInt:
		return Int(0)
	case KindFloat:
		return Float(0)
	case KindString:
		return String_("")
	case KindBool:
		return Bool(false)
	default:
		return Value{}
	}
}
