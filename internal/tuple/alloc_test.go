package tuple

import (
	"fmt"
	"slices"
	"testing"

	"github.com/jstar-lang/jstar/internal/testrace"
)

// wideSchema returns an n-column table cycling through the four kinds.
func wideSchema(n int) *Schema {
	kinds := []Kind{KindInt, KindFloat, KindString, KindBool}
	cols := make([]Column, n)
	for i := range cols {
		cols[i] = Column{Name: fmt.Sprintf("c%d", i), Kind: kinds[i%len(kinds)]}
	}
	return MustSchema(fmt.Sprintf("W%d", n), cols, []OrderEntry{Lit("W")})
}

func wideFields(n int) []Value {
	vals := []Value{Int(7), Float(2.5), String_("s"), Bool(true)}
	fs := make([]Value, n)
	for i := range fs {
		fs[i] = vals[i%len(vals)]
	}
	return fs
}

// TestNewAllocationBudget pins tuple.New's allocation count: one object
// (header and fields together) for every arity up to InlineFields = 8, two
// (header, field slice) for the first arity above it. A count, not a timing.
func TestNewAllocationBudget(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	if InlineFields != 8 {
		t.Fatalf("InlineFields = %d; update this test's stated cap", InlineFields)
	}
	for n := 0; n <= InlineFields+1; n++ {
		s, fs := wideSchema(n), wideFields(n)
		want := 1.0
		if n > InlineFields {
			want = 2
		}
		var sink *Tuple
		if got := testing.AllocsPerRun(100, func() { sink = New(s, fs...) }); got != want {
			t.Errorf("New with %d fields: %v allocations, want %v", n, got, want)
		}
		_ = sink
	}
}

// TestNewInlineFieldsBehaveLikeASlice checks what the one-object layout must
// not change: every arity reads back its own fields, tuples do not alias
// each other or the caller's argument slice, and normalisation (defaults,
// int→float widening) still happens in place.
func TestNewInlineFieldsBehaveLikeASlice(t *testing.T) {
	for n := 0; n <= InlineFields+3; n++ {
		s, fs := wideSchema(n), wideFields(n)
		a, b := New(s, fs...), New(s, fs...)
		for i := range fs {
			fs[i] = Value{} // the caller's slice is not retained
		}
		want := wideFields(n)
		for i := 0; i < n; i++ {
			if !a.Field(i).Equal(want[i]) || !b.Field(i).Equal(want[i]) {
				t.Fatalf("arity %d field %d: %v / %v, want %v", n, i, a.Field(i), b.Field(i), want[i])
			}
		}
		if !a.Equal(b) || a.Hash() != b.Hash() || CompareSchemaFields(a, b) != 0 {
			t.Errorf("arity %d: equal field lists built unequal tuples", n)
		}
		d := New(s, make([]Value, n)...) // all defaults
		for i := 0; i < n; i++ {
			if !d.Field(i).Equal(Zero(s.Columns[i].Kind)) {
				t.Errorf("arity %d field %d: default %v", n, i, d.Field(i))
			}
		}
	}
	s := wideSchema(2)
	if got := New(s, Int(1), Int(3)).Field(1); !got.Equal(Float(3)) {
		t.Errorf("int in float column = %v, want 3 widened", got)
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
