package tuple

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"unsafe"
)

// Tuple is one immutable row of a relation (paper §3: tuples are immutable
// Java objects). It is this 32-byte header followed, in the same
// allocation, by a payload whose layout its schema fixes once:
//
//   - an all-scalar schema (int, float, bool) of at most InlineFields
//     columns: one 8-byte word per column, the payload word its Value
//     would carry (an int's two's complement, a bool as 0/1, a float's
//     canonical bits), its kind taken from the schema. The schema is then
//     the object's only pointer: a 4-int tuple is 64 bytes, of which the
//     GC scans one word;
//   - a string-bearing schema of at most InlineFields columns: the Values
//     themselves;
//   - a wider schema: a []Value header, the Values a second allocation.
//
// Field builds a Value on demand. Nothing writes to a tuple after New, and
// the payload is reached only through words, values and word, which cut it
// to its exact length.
type Tuple struct {
	schema *Schema
	hash   uint64 // precomputed identity hash over schema name + fields
	// key and pathKey are precomputed 64-bit sort keys (schema ID in the
	// high half, an order-preserving 32-bit prefix of one field in the low
	// half) that let the engine's hot-path sorts resolve most comparisons
	// with one integer compare. key prefixes the step order (schema, then
	// fields); pathKey prefixes the path order (schema, then the first
	// seq/par orderby column — or field 0 when the orderby list is all
	// literals and the two orders coincide). Key ties fall back to full
	// comparisons.
	key     uint64
	pathKey uint64
}

// layout is the payload a schema's tuples carry behind the header.
type layout uint8

const (
	layoutWords  layout = iota // [n]uint64: all-scalar, n <= InlineFields
	layoutValues               // [n]Value: string-bearing, n <= InlineFields
	layoutSlice                // []Value: n > InlineFields
)

// InlineFields is the largest arity whose fields New allocates in the same
// object as the tuple header (every table of the paper's apps fits: PvWatts
// has 5 columns). Wider tuples pay a second allocation for a []Value.
const InlineFields = 8

// chooseLayout picks the payload for tuples of the given column kinds and
// the function that allocates one.
func chooseLayout(kinds []Kind) (layout, func() *Tuple) {
	n := len(kinds)
	if n > InlineFields {
		return layoutSlice, func() *Tuple {
			x := new(struct {
				Tuple
				p []Value
			})
			x.p = make([]Value, n)
			return &x.Tuple
		}
	}
	for _, k := range kinds {
		if k != KindInt && k != KindFloat && k != KindBool {
			return layoutValues, inlineAlloc[Value](n)
		}
	}
	return layoutWords, inlineAlloc[uint64](n)
}

// inlineAlloc returns the allocator of a header with n elements of E
// behind it, for n <= InlineFields. Each arity gets its exact size, so no
// tuple carries unused slots.
func inlineAlloc[E any](n int) func() *Tuple {
	switch n {
	case 0:
		return func() *Tuple { return new(Tuple) }
	case 1:
		return inline[[1]E]
	case 2:
		return inline[[2]E]
	case 3:
		return inline[[3]E]
	case 4:
		return inline[[4]E]
	case 5:
		return inline[[5]E]
	case 6:
		return inline[[6]E]
	case 7:
		return inline[[7]E]
	case InlineFields:
		return inline[[InlineFields]E]
	}
	panic("jstar: inline tuple arity out of range")
}

// inline allocates a zero header with payload P behind it as one object;
// the pointer returned, to the header at the object's start, keeps all of
// it alive.
func inline[P any]() *Tuple {
	return &new(struct {
		Tuple
		p P
	}).Tuple
}

// New constructs a tuple with positional field values. It panics if the
// arity or a field kind does not match the schema, mirroring the type errors
// the JStar compiler would reject statically; an invalid (zero) Value takes
// its column's zero, and an int in a float column is widened. It makes one
// allocation for arities up to InlineFields (two above), and fields does
// not escape.
func New(s *Schema, fields ...Value) *Tuple {
	if len(fields) != len(s.kinds) {
		panic(fmt.Sprintf("jstar: new %s: got %d fields, want %d", s.Name, len(fields), len(s.kinds)))
	}
	t := s.alloc()
	t.schema = s
	if s.layout == layoutWords {
		ws := t.words()
		for i, v := range fields {
			if v.p != tag(s.kinds[i]) {
				v = s.normalise(i, v)
			}
			ws[i] = v.n
		}
	} else {
		fs := t.values()
		for i, v := range fields {
			if v.Kind() != s.kinds[i] {
				v = s.normalise(i, v)
			}
			fs[i] = v
		}
	}
	t.hash = t.computeHash()
	t.computeKeys()
	return t
}

// EqualNew reports whether t equals New(s, fields...) without building
// it: each field is normalised as New normalises it (the invalid Value is
// its column's zero, an int in a float column is widened), and where New
// would panic — wrong arity or kind — EqualNew answers false. It is how a
// put recognises a repeat before paying the allocation; fields does not
// escape.
func (t *Tuple) EqualNew(s *Schema, fields ...Value) bool {
	if t.schema != s || len(fields) != len(s.kinds) {
		return false
	}
	for i, v := range fields {
		if v.Kind() != s.kinds[i] {
			var ok bool
			if v, ok = s.normal(i, v); !ok {
				return false
			}
		}
		if !t.Field(i).Equal(v) {
			return false
		}
	}
	return true
}

// normalise returns v as column i stores it: the column's zero for the
// invalid Value, an int widened to a float column (Java widening); any
// other kind mismatch panics.
func (s *Schema) normalise(i int, v Value) Value {
	v, ok := s.normal(i, v)
	if !ok {
		panic(fmt.Sprintf("jstar: new %s: field %s is %v, want %v", s.Name, s.Columns[i].Name, v.Kind(), s.kinds[i]))
	}
	return v
}

// normal is normalise without the panic: ok is false for a kind column i
// cannot hold.
func (s *Schema) normal(i int, v Value) (Value, bool) {
	k, want := v.Kind(), s.kinds[i]
	switch {
	case k == want:
		return v, true
	case k == KindInvalid:
		return Zero(want), true
	case k == KindInt && want == KindFloat:
		return Float(float64(int64(v.n))), true
	}
	return v, false
}

// payload is the address just past the header. Only a tuple with at least
// one field has one: checkptr rejects a pointer past the end of an object.
func (t *Tuple) payload() unsafe.Pointer {
	return unsafe.Add(unsafe.Pointer(t), unsafe.Sizeof(Tuple{}))
}

// words returns the payload of a layoutWords tuple.
func (t *Tuple) words() []uint64 {
	n := len(t.schema.kinds)
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(t.payload()), n)
}

// word returns field i of a layoutWords tuple; i must be in range.
func (t *Tuple) word(i int) uint64 {
	return *(*uint64)(unsafe.Add(t.payload(), uintptr(i)*8))
}

// values returns the fields of a layoutValues or layoutSlice tuple.
func (t *Tuple) values() []Value {
	if t.schema.layout == layoutSlice {
		return *(*[]Value)(t.payload())
	}
	return unsafe.Slice((*Value)(t.payload()), len(t.schema.kinds))
}

// computeKeys fills the precomputed sort keys from the (already
// normalised) fields. The schema half uses the dense registry ID, which is
// assigned at Program.Table time — before any tuple of the table exists.
func (t *Tuple) computeKeys() {
	hi := uint64(uint32(t.schema.id)) << 32
	if len(t.schema.kinds) > 0 {
		t.key = hi | uint64(fieldKey32(t.Field(0)))
	} else {
		t.key = hi
	}
	if c := t.schema.pathCol; c >= 0 {
		t.pathKey = hi | uint64(fieldKey32(t.Field(c)))
	} else {
		t.pathKey = t.key
	}
}

// computeHash folds Value.Hash over the fields; a word is hashed exactly
// as the Value it stands for.
func (t *Tuple) computeHash() uint64 {
	s := t.schema
	h := s.hashSeed
	if s.layout == layoutWords {
		for i, w := range t.words() {
			h = hashWord(hashByte(h, byte(s.kinds[i])), w)
		}
		return h
	}
	for _, v := range t.values() {
		h = v.Hash(h)
	}
	return h
}

// Schema returns the tuple's relation schema.
func (t *Tuple) Schema() *Schema { return t.schema }

// Field returns the value at column position i.
func (t *Tuple) Field(i int) Value {
	s := t.schema
	k := s.kinds[i] // the bounds check for every layout
	if s.layout == layoutWords {
		return Value{p: tag(k), n: t.word(i)}
	}
	return t.values()[i]
}

// Get returns the value of the named column; it panics on unknown names
// (a static error in real JStar).
func (t *Tuple) Get(name string) Value {
	i := t.schema.ColumnIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("jstar: table %s has no column %q", t.schema.Name, name))
	}
	return t.Field(i)
}

// Int is shorthand for Get(name).AsInt().
func (t *Tuple) Int(name string) int64 { return t.Get(name).AsInt() }

// Float is shorthand for Get(name).AsFloat().
func (t *Tuple) Float(name string) float64 { return t.Get(name).AsFloat() }

// Str is shorthand for Get(name).AsString().
func (t *Tuple) Str(name string) string { return t.Get(name).AsString() }

// Hash returns the precomputed identity hash (schema + all fields).
func (t *Tuple) Hash() uint64 { return t.hash }

// Equal reports whether two tuples are identical rows of the same relation.
// JStar has set-oriented semantics, so duplicates (by Equal) are discarded
// when inserted into the Delta set or a Gamma table.
func (t *Tuple) Equal(o *Tuple) bool {
	if t == o {
		return true
	}
	if o == nil || t.schema != o.schema || t.hash != o.hash {
		return false
	}
	if t.schema.layout == layoutWords {
		return slices.Equal(t.words(), o.words()) // floats are canonical
	}
	a, b := t.values(), o.values()
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// CompareFields orders tuples by their fields left to right; a tuple whose
// fields are a strict prefix of another's sorts first. Used as the total
// order inside NavigableSet Gamma stores (ComparePrefix positions a query's
// equality prefix in it).
func (t *Tuple) CompareFields(o *Tuple) int {
	s := t.schema
	if s == o.schema && s.layout == layoutWords {
		a, b := t.words(), o.words()
		for i, k := range s.kinds {
			if a[i] != b[i] {
				return compareWord(k, a[i], b[i])
			}
		}
		return 0
	}
	n, m := len(s.kinds), len(o.schema.kinds)
	for i := range min(n, m) {
		a, b := t.Field(i), o.Field(i)
		if c := comparePtr(&a, &b); c != 0 {
			return c
		}
	}
	return n - m
}

// comparePtr is Compare through pointers with the int-vs-int case inline:
// the comparators below run once per tuple per step-boundary hop, and an
// int column decided here costs two tag compares and two payload loads
// instead of two Kind range checks and a kind switch.
func comparePtr(a, b *Value) int {
	if a.p == tag(KindInt) && b.p == tag(KindInt) {
		return cmp.Compare(int64(a.n), int64(b.n))
	}
	return Compare(*a, *b)
}

// compareWord is Compare on two payload words of one scalar kind k.
func compareWord(k Kind, a, b uint64) int {
	switch {
	case a == b:
		return 0 // floats are canonical: equal values have equal bits
	case k == KindInt:
		return cmp.Compare(int64(a), int64(b))
	case k == KindFloat:
		return compareFloat(math.Float64frombits(a), math.Float64frombits(b))
	}
	return cmp.Compare(a, b) // bool
}

// compareCol orders column col of two tuples of schema s.
func compareCol(s *Schema, a, b *Tuple, col int) int {
	if s.layout == layoutWords {
		return compareWord(s.kinds[col], a.word(col), b.word(col))
	}
	x, y := a.Field(col), b.Field(col)
	return comparePtr(&x, &y)
}

// CompareSchemaFields is the engine's step order: schema identity (dense
// ID, then name as a tiebreak for unregistered schemas), then all fields
// left to right. It is the order BeginStep sorts each extracted batch into
// — schema-clustered for grouped Gamma inserts, field-ordered within a
// schema so sequential firing order is deterministic. The precomputed key
// resolves most comparisons with one integer compare.
func CompareSchemaFields(a, b *Tuple) int {
	if a.key != b.key {
		if a.key < b.key {
			return -1
		}
		return 1
	}
	return compareSchemaFieldsTied(a, b)
}

// compareSchemaFieldsTied is CompareSchemaFields once the keys tie, out of
// line so that the key compare inlines into its callers.
func compareSchemaFieldsTied(a, b *Tuple) int {
	if a.schema != b.schema {
		if c := compareSchemas(a.schema, b.schema); c != 0 {
			return c
		}
	}
	return a.CompareFields(b)
}

// ComparePath is the engine's one tuple order from put buffer to Gamma:
// schema identity, then the seq/par orderby columns in declaration order,
// then all fields. It refines the Delta tree's path grouping to a total
// order, so a flush sorted by it descends the tree once per distinct path
// and lands in each leaf as one ascending segment; two tuples comparing
// equal are exactly the set-semantics duplicates (same schema, same
// fields) that merge-time dedup may drop.
//
// The single-order invariant: tuples on one Delta path agree on every
// seq/par orderby column, so restricted to a leaf ComparePath IS the step
// order CompareSchemaFields — what a worker sorted at seal time is still
// sorted when the leaf drains into BeginStep and when Gamma's ordered
// stores take it as a run. (It needs the distinct schema IDs a Program
// assigns; unregistered schemas sharing ID 0 order by name after the key
// prefix, and BeginStep's is-sorted check covers them.)
func ComparePath(a, b *Tuple) int {
	if a.pathKey != b.pathKey {
		if a.pathKey < b.pathKey {
			return -1
		}
		return 1
	}
	sa, sb := a.schema, b.schema
	if sa != sb {
		if c := compareSchemas(sa, sb); c != 0 {
			return c
		}
		// Distinct schema objects that tie on ID and name (tuples from
		// unrelated Programs mixed in one sort): field order only — the
		// orderby lists may disagree structurally.
		return a.CompareFields(b)
	}
	if sa != nil {
		for _, col := range sa.obCols {
			if col < 0 {
				continue // literal: constant across the schema's tuples
			}
			if c := compareCol(sa, a, b, col); c != 0 {
				return c
			}
		}
	}
	return a.CompareFields(b)
}

// SamePath reports whether a and b are tuples of one schema that agree on
// every seq/par orderby column, and therefore end at the same Delta-tree
// leaf — where ComparePath and CompareSchemaFields are the same order.
func SamePath(a, b *Tuple) bool {
	if a.schema != b.schema {
		return false
	}
	for _, col := range a.schema.obCols {
		if col >= 0 && compareCol(a.schema, a, b, col) != 0 {
			return false
		}
	}
	return true
}

// compareSchemas orders distinct schemas by dense ID, then name — a
// deterministic tiebreak for schemas never registered with a Program.
func compareSchemas(a, b *Schema) int {
	if a == nil || b == nil {
		if a == b {
			return 0
		}
		if a == nil {
			return -1
		}
		return 1
	}
	if a.id != b.id {
		if a.id < b.id {
			return -1
		}
		return 1
	}
	return strings.Compare(a.Name, b.Name)
}

// ComparePrefix places t relative to the range of tuples whose leading
// fields equal prefix, in CompareFields order: negative when t sorts before
// the range, zero when t is in it, positive when t sorts after. It is how
// ordered Gamma stores position a prefix query without building a probe
// tuple. Membership is Value.Equal's: an int never matches a float column,
// whatever Compare says about their magnitudes.
func (t *Tuple) ComparePrefix(prefix []Value) int {
	n := len(t.schema.kinds)
	for i := range prefix {
		if i >= n {
			return -1 // t is a strict prefix of the prefix: sorts first
		}
		a, b := t.Field(i), &prefix[i]
		if c := comparePtr(&a, b); c != 0 {
			return c
		}
		if ka, kb := a.Kind(), b.Kind(); ka != kb {
			// Numerically equal across kinds: not a match, and every value
			// of this (fixed-kind) column falls on the same side.
			return int(ka) - int(kb)
		}
	}
	return 0
}

// KeyEqual reports whether two tuples agree on the primary-key columns.
func (t *Tuple) KeyEqual(o *Tuple) bool {
	if t.schema != o.schema {
		return false
	}
	for _, i := range t.schema.keyCols {
		if !t.Field(i).Equal(o.Field(i)) {
			return false
		}
	}
	return true
}

// String renders the tuple as Name(v1, v2, ...).
func (t *Tuple) String() string {
	var b strings.Builder
	b.WriteString(t.schema.Name)
	b.WriteByte('(')
	for i := range t.schema.kinds {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.Field(i).String())
	}
	b.WriteByte(')')
	return b.String()
}

// Builder accumulates field values by name and produces an immutable Tuple,
// mirroring the generated builder classes of JStar ("by name" construction
// and the copy method, paper §3).
type Builder struct {
	schema *Schema
	fields []Value
}

// NewBuilder returns a builder with all fields defaulted to their zero
// values ("use default values for frame and dy").
func NewBuilder(s *Schema) *Builder {
	b := &Builder{schema: s, fields: make([]Value, len(s.Columns))}
	for i, c := range s.Columns {
		b.fields[i] = Zero(c.Kind)
	}
	return b
}

// CopyOf returns a builder pre-populated from an existing tuple, so a rule
// can "update a few fields and create a new tuple".
func CopyOf(t *Tuple) *Builder {
	b := &Builder{schema: t.schema, fields: make([]Value, len(t.schema.kinds))}
	for i := range b.fields {
		b.fields[i] = t.Field(i)
	}
	return b
}

// Set assigns a field by name and returns the builder for chaining.
func (b *Builder) Set(name string, v Value) *Builder {
	i := b.schema.ColumnIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("jstar: table %s has no column %q", b.schema.Name, name))
	}
	b.fields[i] = v
	return b
}

// SetInt assigns an int field by name.
func (b *Builder) SetInt(name string, v int64) *Builder { return b.Set(name, Int(v)) }

// SetFloat assigns a float field by name.
func (b *Builder) SetFloat(name string, v float64) *Builder { return b.Set(name, Float(v)) }

// SetString assigns a string field by name.
func (b *Builder) SetString(name string, v string) *Builder { return b.Set(name, String_(v)) }

// SetBool assigns a bool field by name.
func (b *Builder) SetBool(name string, v bool) *Builder { return b.Set(name, Bool(v)) }

// Build produces the immutable tuple.
func (b *Builder) Build() *Tuple { return New(b.schema, b.fields...) }
