package tuple

import (
	"cmp"
	"fmt"
	"strings"
)

// Tuple is one immutable row of a relation. The fields slice is owned by the
// tuple and must never be mutated after construction; the builder API and
// Copy make this convenient (paper §3: tuples are immutable Java objects).
type Tuple struct {
	schema *Schema
	fields []Value
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

// New constructs a tuple with positional field values. It panics if the
// arity or a field kind does not match the schema, mirroring the type errors
// the JStar compiler would reject statically. It makes one allocation for
// arities up to InlineFields (two above), and fields does not escape.
func New(s *Schema, fields ...Value) *Tuple {
	if len(fields) != len(s.Columns) {
		panic(fmt.Sprintf("jstar: new %s: got %d fields, want %d", s.Name, len(fields), len(s.Columns)))
	}
	t := alloc(len(fields))
	t.schema = s
	fs := t.fields
	copy(fs, fields)
	for i := range fs {
		v := &fs[i]
		k, want := v.Kind(), s.Columns[i].Kind
		if k == want {
			continue
		}
		switch {
		case k == KindInvalid:
			*v = Zero(want)
		case k == KindInt && want == KindFloat:
			// Permit int literals in float columns (Java widening).
			*v = Float(float64(int64(v.n)))
		default:
			panic(fmt.Sprintf("jstar: new %s: field %s is %v, want %v",
				s.Name, s.Columns[i].Name, k, want))
		}
	}
	t.hash = t.computeHash()
	t.computeKeys()
	return t
}

// InlineFields is the largest arity whose fields New allocates in the same
// object as the tuple header (every table of the paper's apps fits: PvWatts
// has 5 columns). Wider tuples pay a second allocation for the field slice.
const InlineFields = 8

// alloc returns a zero tuple with n fields. Up to InlineFields the header
// and the field array are one struct — one allocation, and the interior
// pointer returned keeps the whole object alive — sized exactly per arity so
// no tuple carries unused Value slots.
func alloc(n int) *Tuple {
	switch n {
	case 0:
		return &Tuple{}
	case 1:
		x := &struct {
			Tuple
			a [1]Value
		}{}
		x.fields = x.a[:]
		return &x.Tuple
	case 2:
		x := &struct {
			Tuple
			a [2]Value
		}{}
		x.fields = x.a[:]
		return &x.Tuple
	case 3:
		x := &struct {
			Tuple
			a [3]Value
		}{}
		x.fields = x.a[:]
		return &x.Tuple
	case 4:
		x := &struct {
			Tuple
			a [4]Value
		}{}
		x.fields = x.a[:]
		return &x.Tuple
	case 5:
		x := &struct {
			Tuple
			a [5]Value
		}{}
		x.fields = x.a[:]
		return &x.Tuple
	case 6:
		x := &struct {
			Tuple
			a [6]Value
		}{}
		x.fields = x.a[:]
		return &x.Tuple
	case 7:
		x := &struct {
			Tuple
			a [7]Value
		}{}
		x.fields = x.a[:]
		return &x.Tuple
	case InlineFields:
		x := &struct {
			Tuple
			a [InlineFields]Value
		}{}
		x.fields = x.a[:]
		return &x.Tuple
	}
	return &Tuple{fields: make([]Value, n)}
}

// computeKeys fills the precomputed sort keys from the (already
// normalised) fields. The schema half uses the dense registry ID, which is
// assigned at Program.Table time — before any tuple of the table exists.
func (t *Tuple) computeKeys() {
	hi := uint64(uint32(t.schema.id)) << 32
	if len(t.fields) > 0 {
		t.key = hi | uint64(fieldKey32(t.fields[0]))
	} else {
		t.key = hi
	}
	if c := t.schema.pathCol; c >= 0 {
		t.pathKey = hi | uint64(fieldKey32(t.fields[c]))
	} else {
		t.pathKey = t.key
	}
}

func (t *Tuple) computeHash() uint64 {
	h := t.schema.hashSeed
	for _, v := range t.fields {
		h = v.Hash(h)
	}
	return h
}

// Schema returns the tuple's relation schema.
func (t *Tuple) Schema() *Schema { return t.schema }

// Field returns the value at column position i.
func (t *Tuple) Field(i int) Value { return t.fields[i] }

// Get returns the value of the named column; it panics on unknown names
// (a static error in real JStar).
func (t *Tuple) Get(name string) Value {
	i := t.schema.ColumnIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("jstar: table %s has no column %q", t.schema.Name, name))
	}
	return t.fields[i]
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
	for i := range t.fields {
		if !t.fields[i].Equal(o.fields[i]) {
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
	n := len(t.fields)
	if len(o.fields) < n {
		n = len(o.fields)
	}
	for i := 0; i < n; i++ {
		if c := comparePtr(&t.fields[i], &o.fields[i]); c != 0 {
			return c
		}
	}
	return len(t.fields) - len(o.fields)
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
			if c := comparePtr(&a.fields[col], &b.fields[col]); c != 0 {
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
		if col >= 0 && comparePtr(&a.fields[col], &b.fields[col]) != 0 {
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
	for i := range prefix {
		if i >= len(t.fields) {
			return -1 // t is a strict prefix of the prefix: sorts first
		}
		a, b := &t.fields[i], &prefix[i]
		if c := comparePtr(a, b); c != 0 {
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
		if !t.fields[i].Equal(o.fields[i]) {
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
	for i, v := range t.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
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
	b := &Builder{schema: t.schema, fields: make([]Value, len(t.fields))}
	copy(b.fields, t.fields)
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
