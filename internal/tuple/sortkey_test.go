package tuple

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestFieldKey32OrderPreserving: for random same-kind value pairs, the
// 32-bit key prefix must never contradict Compare — key(a) < key(b) only
// when Compare(a, b) < 0. Ties are allowed (the comparators fall back).
func TestFieldKey32OrderPreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mkInt := func() Value {
		switch rng.Intn(4) {
		case 0:
			return Int(int64(rng.Intn(2000) - 1000))
		case 1:
			return Int(rng.Int63() - rng.Int63())
		case 2:
			return Int(math.MinInt64 + int64(rng.Intn(3)))
		default:
			return Int(math.MaxInt64 - int64(rng.Intn(3)))
		}
	}
	mkFloat := func() Value {
		switch rng.Intn(6) {
		case 0:
			return Float(math.NaN())
		case 1:
			return Float(math.Inf(1 - 2*rng.Intn(2)))
		case 2:
			return Float(0 * float64(1-2*rng.Intn(2))) // ±0
		case 3:
			return Float((rng.Float64() - 0.5) * 1e-300)
		default:
			return Float((rng.Float64() - 0.5) * 1e6)
		}
	}
	mkStr := func() Value {
		n := rng.Intn(7)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(3))
		}
		return String_(string(b))
	}
	gens := map[string]func() Value{
		"int":    mkInt,
		"float":  mkFloat,
		"string": mkStr,
		"bool":   func() Value { return Bool(rng.Intn(2) == 0) },
	}
	for kind, gen := range gens {
		for i := 0; i < 20000; i++ {
			a, b := gen(), gen()
			ka, kb := fieldKey32(a), fieldKey32(b)
			c := Compare(a, b)
			if ka < kb && c >= 0 || ka > kb && c <= 0 {
				t.Fatalf("%s: key order contradicts Compare: %v (key %d) vs %v (key %d), Compare=%d",
					kind, a, ka, b, kb, c)
			}
		}
	}
}

// TestCompareSchemaFieldsMatchesLegacyOrder: the key-accelerated step
// comparator must order any batch exactly as the old closure (schema ID,
// then CompareFields) did — the byte-identical-firing-order contract.
func TestCompareSchemaFieldsMatchesLegacyOrder(t *testing.T) {
	sa := MustSchema("KA",
		[]Column{{Name: "x", Kind: KindInt}, {Name: "f", Kind: KindFloat}},
		[]OrderEntry{Lit("K")})
	sa.SetID(0)
	sb := MustSchema("KB",
		[]Column{{Name: "s", Kind: KindString}, {Name: "x", Kind: KindInt}},
		[]OrderEntry{Lit("K"), Seq("x")})
	sb.SetID(1)
	rng := rand.New(rand.NewSource(2))
	var ts []*Tuple
	for i := 0; i < 500; i++ {
		if rng.Intn(2) == 0 {
			ts = append(ts, New(sa,
				Int(int64(rng.Intn(40)-20)), Float(float64(rng.Intn(5)))))
		} else {
			ts = append(ts, New(sb,
				String_(string(rune('a'+rng.Intn(4)))), Int(int64(rng.Intn(40)-20))))
		}
	}
	legacy := append([]*Tuple(nil), ts...)
	sort.SliceStable(legacy, func(i, j int) bool {
		a, b := legacy[i], legacy[j]
		if a.Schema() != b.Schema() {
			return a.Schema().ID() < b.Schema().ID()
		}
		return a.CompareFields(b) < 0
	})
	keyed := append([]*Tuple(nil), ts...)
	slices.SortStableFunc(keyed, CompareSchemaFields)
	for i := range legacy {
		if legacy[i] != keyed[i] {
			// Equal-comparing tuples may permute; require value equality.
			if CompareSchemaFields(legacy[i], keyed[i]) != 0 {
				t.Fatalf("order diverges at %d: %v vs %v", i, keyed[i], legacy[i])
			}
		}
	}
}

// TestComparePathRefinesPathOrder: ComparePath must agree with the old
// pathLess ordering (schema, then seq/par orderby columns) wherever the
// latter was decisive, must be a total order, and must equate exactly the
// set-semantics duplicates.
func TestComparePathRefinesPathOrder(t *testing.T) {
	s := MustSchema("PK",
		[]Column{{Name: "v", Kind: KindInt}, {Name: "d", Kind: KindInt}},
		[]OrderEntry{Lit("P"), Seq("d")}) // path column is field 1
	s.SetID(3)
	rng := rand.New(rand.NewSource(4))
	var ts []*Tuple
	for i := 0; i < 400; i++ {
		ts = append(ts, New(s, Int(int64(rng.Intn(10))), Int(int64(rng.Intn(10)))))
	}
	for i := 0; i < 4000; i++ {
		a, b := ts[rng.Intn(len(ts))], ts[rng.Intn(len(ts))]
		pathC := Compare(a.Field(1), b.Field(1)) // old pathLess: orderby col only
		c := ComparePath(a, b)
		if pathC != 0 && keySign(c) != keySign(pathC) {
			t.Fatalf("ComparePath contradicts path order: %v vs %v: %d vs %d", a, b, c, pathC)
		}
		if c == 0 != a.Equal(b) {
			t.Fatalf("ComparePath==0 must coincide with Equal: %v vs %v (cmp=%d)", a, b, c)
		}
		if c != -ComparePath(b, a) {
			t.Fatalf("ComparePath not antisymmetric on %v vs %v", a, b)
		}
	}
}

func keySign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// TestComparePathIsStepOrderOnOnePath is the single-order invariant: over
// seeded random schemas (random column kinds, random orderby shapes,
// distinct IDs as a Program assigns them) and tuples drawn from narrow
// domains, two tuples on the same Delta path — same schema, equal seq/par
// orderby columns, or different schemas whose orderby lists are all
// literals — compare the same way under ComparePath and under the step
// order CompareSchemaFields; and ComparePath equates exactly the
// set-semantics duplicates.
func TestComparePathIsStepOrderOnOnePath(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	kinds := []Kind{KindInt, KindInt, KindFloat, KindString, KindBool}
	randValue := func(k Kind) Value {
		switch k {
		case KindInt:
			if rng.Intn(8) == 0 {
				return Int(int64(rng.Intn(3)-1) << 40) // beyond the 32-bit key prefix
			}
			return Int(int64(rng.Intn(5) - 2))
		case KindFloat:
			// -0.0 is +0.0 once it is a Value, so the two zeros are one
			// duplicate to ComparePath and to Equal alike.
			return Float([]float64{math.NaN(), math.Inf(-1), -1.5, 0, math.Copysign(0, -1), 2.25}[rng.Intn(6)])
		case KindString:
			return String_([]string{"", "a", "ab", "abcd", "abcde", "abcdf"}[rng.Intn(6)])
		default:
			return Bool(rng.Intn(2) == 0)
		}
	}
	for trial := 0; trial < 200; trial++ {
		var schemas []*Schema
		for id := 0; id < 1+rng.Intn(3); id++ {
			cols := make([]Column, 1+rng.Intn(4))
			for i := range cols {
				cols[i] = Column{Name: string(rune('a' + i)), Kind: kinds[rng.Intn(len(kinds))]}
			}
			var ob []OrderEntry
			for i := 0; i < rng.Intn(4); i++ {
				switch c := cols[rng.Intn(len(cols))].Name; rng.Intn(3) {
				case 0:
					ob = append(ob, Lit("L"))
				case 1:
					ob = append(ob, Seq(c))
				default:
					ob = append(ob, Par(c))
				}
			}
			s := MustSchema(string(rune('A'+id)), cols, ob)
			s.SetID(int32(id))
			schemas = append(schemas, s)
		}
		var ts []*Tuple
		for i := 0; i < 60; i++ {
			s := schemas[rng.Intn(len(schemas))]
			fs := make([]Value, s.Arity())
			for c := range fs {
				fs[c] = randValue(s.Columns[c].Kind)
			}
			ts = append(ts, New(s, fs...))
		}
		onePath := func(a, b *Tuple) bool {
			if a.schema == b.schema {
				return SamePath(a, b)
			}
			return a.schema.pathCol < 0 && b.schema.pathCol < 0 &&
				len(a.schema.OrderBy) == len(b.schema.OrderBy)
		}
		for _, a := range ts {
			for _, b := range ts {
				c := ComparePath(a, b)
				if (c == 0) != a.Equal(b) {
					t.Fatalf("trial %d: ComparePath(%v, %v) = %d but Equal = %v", trial, a, b, c, a.Equal(b))
				}
				if c != -ComparePath(b, a) {
					t.Fatalf("trial %d: ComparePath not antisymmetric on %v vs %v", trial, a, b)
				}
				if onePath(a, b) && keySign(c) != keySign(CompareSchemaFields(a, b)) {
					t.Fatalf("trial %d: %v vs %v share a path but ComparePath = %d, CompareSchemaFields = %d (%v)",
						trial, a, b, c, CompareSchemaFields(a, b), a.schema)
				}
			}
		}
		// And as an order on a whole leaf: sorting one path's tuples by
		// ComparePath leaves them sorted in step order.
		for _, pivot := range ts {
			var leaf []*Tuple
			for _, x := range ts {
				if onePath(pivot, x) {
					leaf = append(leaf, x)
				}
			}
			slices.SortFunc(leaf, ComparePath)
			if !slices.IsSortedFunc(leaf, CompareSchemaFields) {
				t.Fatalf("trial %d: leaf of %v sorted by ComparePath is not in step order", trial, pivot)
			}
		}
	}
}
