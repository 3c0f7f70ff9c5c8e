package gamma

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// This file defines the store-planning vocabulary: named store kinds, the
// spec syntax that parameterises them, and StorePlan — a per-table mapping
// from table name to kind spec. A plan is the serialisable form of the
// paper's stage-4 data-structure hints: where GammaHint carries an opaque
// StoreFactory closure, a plan entry is a string like "hash:2" that can be
// validated up front, written to JSON by one run and replayed by the next
// (the profile-guided tuning loop), or emitted statically by the compiler.

// StorePlan maps table names to store-kind specs (see FactoryFor for the
// spec syntax). It is plain JSON — map[string]string — so plans round-trip
// through files and the BENCH artifacts unchanged. A nil plan means "no
// opinion"; tables absent from a plan keep whatever store they would
// otherwise get.
type StorePlan map[string]string

// Clone returns a copy of the plan (nil stays nil).
func (p StorePlan) Clone() StorePlan {
	if p == nil {
		return nil
	}
	out := make(StorePlan, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// StoreKinds lists the canonical store-kind names, in menu order —
// mirroring exec.StrategyNames, so command-line tools and validation
// errors build the legal set from exactly one place.
func StoreKinds() []string {
	return []string{"tree", "hash", "inthash", "columnar", "arrayhash", "dense3d", "rolling"}
}

// KindName returns the kind name of a spec without its parameters
// ("hash:2" -> "hash").
func KindName(spec string) string {
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		return spec[:i]
	}
	return spec
}

// kindNamer is the optional Store extension reporting which kind (and
// parameters) built a store, in replayable spec syntax.
type kindNamer interface{ StoreKind() string }

// KindOf reports the kind spec of a store ("tree", "hash:2",
// "dense3d:3,96,96", ...), or "custom" for stores from outside this
// package. For every store built by FactoryFor, FactoryFor(KindOf(st), s)
// rebuilds an equivalent store — the property saved plans rely on.
func KindOf(st Store) string {
	if k, ok := st.(kindNamer); ok {
		return k.StoreKind()
	}
	return "custom"
}

// parseSpec splits "name:a1,a2,..." into the kind name and integer args.
func parseSpec(spec string) (string, []int64, error) {
	name, rest, has := strings.Cut(spec, ":")
	if !has {
		return name, nil, nil
	}
	parts := strings.Split(rest, ",")
	args := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return "", nil, fmt.Errorf("store kind %q: parameter %q is not an integer", spec, p)
		}
		args[i] = v
	}
	return name, args, nil
}

// AllIntColumns reports whether every column of s is an int — the
// suitability test for the int-specialised backends, shared by FactoryFor,
// the stats planner and the compiler's static hint pass.
func AllIntColumns(s *tuple.Schema) bool {
	for _, c := range s.Columns {
		if c.Kind != tuple.KindInt {
			return false
		}
	}
	return true
}

// FactoryFor resolves a store-kind spec against a schema, returning an
// error (never panicking) when the kind is unknown or unsuitable for the
// table — the validation seam Program.Validate uses so a bad plan is
// rejected before any run is built. The spec syntax is "kind" or
// "kind:p1,p2,...":
//
//	tree                 NavigableSet (B-tree), the default
//	hash[:k]             hash index on the first k columns (default 1)
//	inthash[:k]          int-specialised open-addressing store keyed on the
//	                     first k int columns (default: the primary-key
//	                     width, else 1); requires an all-int table
//	columnar             compressed append-only columnar store
//	arrayhash:col,lo,hi  array-of-hashsets over int column col in [lo,hi]
//	dense3d:na,nb,nc     flat native arrays for (int,int,int -> int)
//	rolling:n            two-iteration rolling array for (int,int -> double)
func FactoryFor(spec string, s *tuple.Schema) (StoreFactory, error) {
	name, args, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	bad := func(format string, a ...any) (StoreFactory, error) {
		return nil, fmt.Errorf("store kind %q on table %s: %s", spec, s.Name, fmt.Sprintf(format, a...))
	}
	wantArgs := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("store kind %q: needs %d parameters, got %d", spec, n, len(args))
		}
		return nil
	}
	switch name {
	case "tree":
		if len(args) != 0 {
			return bad("takes no parameters")
		}
		return NewTreeStore, nil
	case "hash":
		k := int64(1)
		if len(args) > 1 {
			return bad("takes at most one parameter (k)")
		}
		if len(args) == 1 {
			k = args[0]
		}
		if k < 1 || k > int64(s.Arity()) {
			return bad("k=%d out of range [1,%d]", k, s.Arity())
		}
		return NewHashStore(int(k)), nil
	case "inthash":
		if !AllIntColumns(s) {
			return bad("requires all-int columns")
		}
		k := int64(len(s.KeyColumns()))
		if k < 1 {
			k = 1
		}
		if len(args) > 1 {
			return bad("takes at most one parameter (k)")
		}
		if len(args) == 1 {
			k = args[0]
		}
		if k < 1 || k > int64(s.Arity()) {
			return bad("k=%d out of range [1,%d]", k, s.Arity())
		}
		return NewIntHashStore(int(k)), nil
	case "columnar":
		if len(args) != 0 {
			return bad("takes no parameters")
		}
		return NewColumnarStore, nil
	case "arrayhash":
		if err := wantArgs(3); err != nil {
			return nil, err
		}
		col, lo, hi := args[0], args[1], args[2]
		if col < 0 || col >= int64(s.Arity()) || s.Columns[col].Kind != tuple.KindInt {
			return bad("column %d is not an int column", col)
		}
		if hi < lo {
			return bad("empty range [%d,%d]", lo, hi)
		}
		return NewArrayOfHashSets(int(col), lo, hi), nil
	case "dense3d":
		if err := wantArgs(3); err != nil {
			return nil, err
		}
		if s.Arity() != 4 || !AllIntColumns(s) {
			return bad("requires a 4-column all-int table")
		}
		if args[0] < 1 || args[1] < 1 || args[2] < 1 {
			return bad("dimensions must be positive")
		}
		return NewDense3D(int(args[0]), int(args[1]), int(args[2])), nil
	case "rolling":
		if err := wantArgs(1); err != nil {
			return nil, err
		}
		if s.Arity() != 3 || s.Columns[0].Kind != tuple.KindInt ||
			s.Columns[1].Kind != tuple.KindInt || s.Columns[2].Kind != tuple.KindFloat {
			return bad("requires an (int, int -> double) table")
		}
		if args[0] < 1 {
			return bad("size must be positive")
		}
		return NewRollingFloatArray(int(args[0])), nil
	}
	return nil, fmt.Errorf("unknown store kind %q (valid: %s)", spec, strings.Join(StoreKinds(), "|"))
}
