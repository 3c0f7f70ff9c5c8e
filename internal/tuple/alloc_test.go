package tuple

import (
	"fmt"
	"slices"
	"testing"

	"github.com/jstar-lang/jstar/internal/testrace"
)

// family is a set of schemas, one per arity, with a field list to fill
// them: the mixed-kind family cycles through all four kinds (so it carries
// Values), the scalar family through int, float and bool (so up to
// InlineFields columns it carries words).
type family struct {
	name   string
	kinds  []Kind
	values []Value
}

var families = []family{
	{"mixed", []Kind{KindInt, KindFloat, KindString, KindBool}, []Value{Int(7), Float(2.5), String_("s"), Bool(true)}},
	{"scalar", []Kind{KindInt, KindFloat, KindBool}, []Value{Int(-7), Float(-2.5), Bool(true)}},
}

// schema returns the family's n-column table.
func (f family) schema(n int) *Schema {
	cols := make([]Column, n)
	for i := range cols {
		cols[i] = Column{Name: fmt.Sprintf("c%d", i), Kind: f.kinds[i%len(f.kinds)]}
	}
	return MustSchema(fmt.Sprintf("%s%d", f.name, n), cols, []OrderEntry{Lit("W")})
}

// fields returns a fresh n-field list for the family's n-column table.
func (f family) fields(n int) []Value {
	fs := make([]Value, n)
	for i := range fs {
		fs[i] = f.values[i%len(f.values)]
	}
	return fs
}

// TestNewAllocationBudget pins tuple.New's allocation count: one object
// (header and fields together) for every arity up to InlineFields = 8, two
// (header, field slice) for the first arity above it, in both layouts that
// inline their fields. A count, not a timing.
func TestNewAllocationBudget(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	if InlineFields != 8 {
		t.Fatalf("InlineFields = %d; update this test's stated cap", InlineFields)
	}
	for _, f := range families {
		for n := 0; n <= InlineFields+1; n++ {
			s, fs := f.schema(n), f.fields(n)
			want := 1.0
			if n > InlineFields {
				want = 2
			}
			var sink *Tuple
			if got := testing.AllocsPerRun(100, func() { sink = New(s, fs...) }); got != want {
				t.Errorf("%s: New with %d fields: %v allocations, want %v", f.name, n, got, want)
			}
			_ = sink
		}
	}
}

// TestNewInlineFieldsBehaveLikeASlice checks what the one-object layouts
// must not change: every arity reads back its own fields, tuples do not
// alias each other or the caller's argument slice, and normalisation
// (defaults, int→float widening) lands in the stored fields.
func TestNewInlineFieldsBehaveLikeASlice(t *testing.T) {
	for _, f := range families {
		for n := 0; n <= InlineFields+3; n++ {
			s, fs := f.schema(n), f.fields(n)
			a, b := New(s, fs...), New(s, fs...)
			for i := range fs {
				fs[i] = Value{} // the caller's slice is not retained
			}
			want := f.fields(n)
			for i := 0; i < n; i++ {
				if !a.Field(i).Equal(want[i]) || !b.Field(i).Equal(want[i]) {
					t.Fatalf("%s arity %d field %d: %v / %v, want %v", f.name, n, i, a.Field(i), b.Field(i), want[i])
				}
			}
			if !a.Equal(b) || a.Hash() != b.Hash() || CompareSchemaFields(a, b) != 0 {
				t.Errorf("%s arity %d: equal field lists built unequal tuples", f.name, n)
			}
			d := New(s, make([]Value, n)...) // all defaults
			for i := 0; i < n; i++ {
				if !d.Field(i).Equal(Zero(s.Columns[i].Kind)) {
					t.Errorf("%s arity %d field %d: default %v", f.name, n, i, d.Field(i))
				}
			}
			if n >= 2 {
				fs := f.fields(n)
				fs[1] = Int(-3) // column 1 is a float column in both families
				w := New(s, fs...)
				if got := w.Field(1); !got.Equal(Float(-3)) {
					t.Errorf("%s arity %d: int in float column = %v, want -3 widened", f.name, n, got)
				}
				fs[1] = Float(-3)
				if u := New(s, fs...); !w.Equal(u) || w.Hash() != u.Hash() {
					t.Errorf("%s arity %d: widened tuple %v differs from %v", f.name, n, w, u)
				}
			}
		}
	}
}

// TestComparePrefixLocatesTheRange checks ComparePrefix against the
// definition it replaces (a schema-less probe tuple ordered by
// CompareFields, then a Value.Equal prefix test): over a sorted table the
// sign sequence is monotone and zero exactly on the Equal-prefix tuples.
func TestComparePrefixLocatesTheRange(t *testing.T) {
	s := MustSchema("T", []Column{{Name: "a", Kind: KindInt}, {Name: "b", Kind: KindFloat}, {Name: "c", Kind: KindString}},
		[]OrderEntry{Lit("T")})
	var ts []*Tuple
	for a := int64(0); a < 4; a++ {
		for _, b := range []float64{-1, 0, 2} {
			for _, c := range []string{"", "x", "y"} {
				ts = append(ts, New(s, Int(a), Float(b), String_(c)))
			}
		}
	}
	slices.SortFunc(ts, func(x, y *Tuple) int { return x.CompareFields(y) })
	prefixes := [][]Value{
		nil,
		{Int(2)},
		{Int(2), Float(0)},
		{Int(2), Float(0), String_("x")},
		{Int(9)},                                 // after everything
		{Int(-1)},                                // before everything
		{Int(2), Float(1)},                       // inside a's range, absent
		{Float(2)},                               // numerically equal, wrong kind: no match
		{Int(2), Int(2)},                         // int against the float column: no match
		{Int(2), Float(0), Value{}},              // invalid value: no match
		{Int(1), Float(2), String_("y"), Int(0)}, // longer than the arity
	}
	for _, p := range prefixes {
		last := -1
		for _, x := range ts {
			c := sign(x.ComparePrefix(p))
			if c < last {
				t.Fatalf("prefix %v: sign fell from %d to %d at %v", p, last, c, x)
			}
			last = c
			has := len(p) <= 3
			for i := 0; has && i < len(p); i++ {
				has = x.Field(i).Equal(p[i])
			}
			if (c == 0) != has {
				t.Errorf("prefix %v, tuple %v: ComparePrefix sign %d, Equal-prefix %v", p, x, c, has)
			}
		}
	}
}
