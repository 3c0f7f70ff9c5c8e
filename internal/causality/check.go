package causality

import (
	"fmt"
	"strings"

	"github.com/jstar-lang/jstar/internal/order"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// KeyExpr is one component of a symbolic causal key: either a literal name
// or a linear expression over the rule's variables (trigger fields, query
// results, locals).
type KeyExpr struct {
	Lit  string // literal component when non-empty
	Expr Expr   // otherwise a linear expression
}

// LitKey returns a literal key component.
func LitKey(name string) KeyExpr { return KeyExpr{Lit: name} }

// ExprKey returns an expression key component.
func ExprKey(e Expr) KeyExpr { return KeyExpr{Expr: e} }

// QueryKind classifies database queries for the causality law: positive
// queries may read the present (<= T), negative and aggregate queries only
// the strict past (< T), because future puts could change their results.
type QueryKind int

const (
	// Positive is an existence/join query over stored tuples.
	Positive QueryKind = iota
	// Negative checks that tuples are absent.
	Negative
	// Aggregate counts/sums/combines tuples.
	Aggregate
)

func (k QueryKind) String() string {
	switch k {
	case Positive:
		return "positive"
	case Negative:
		return "negative"
	default:
		return "aggregate"
	}
}

// PutSpec symbolically describes one `put` statement: the guard is the path
// condition under which it executes, Key the orderby list of the new tuple.
type PutSpec struct {
	Table string
	Guard []Constraint
	Key   []KeyExpr
}

// QuerySpec symbolically describes one database query; Prefix is the
// length of its equality prefix.
type QuerySpec struct {
	Table  string
	Kind   QueryKind
	Prefix int
	Guard  []Constraint
	Key    []KeyExpr
}

// RuleSpec is the symbolic description of a rule that the checker verifies
// against the causality law. TriggerKey is the orderby list of the trigger
// tuple; Invariants are the declared tuple invariants (`inv(trig)` in the
// paper's obligations).
type RuleSpec struct {
	Name       string
	Trigger    string
	TriggerKey []KeyExpr
	Invariants []Constraint
	Puts       []PutSpec
	Queries    []QuerySpec
}

// Obligation is one proof obligation and its outcome.
type Obligation struct {
	Rule    string
	Kind    string // "put" or "query"
	Target  string // table of the put/query
	Proved  bool
	Reason  string // why the proof failed (empty when proved)
	Formula string // human-readable obligation
}

// Checker verifies rule specs against a partial order over literal names.
type Checker struct {
	po *order.PartialOrder
}

// NewChecker returns a checker using the program's order declarations.
func NewChecker(po *order.PartialOrder) *Checker { return &Checker{po: po} }

// Check generates and discharges all obligations for the given rules:
// for every put, orderby(trig) <= orderby(new); for every negative or
// aggregate query, orderby(query) < orderby(trig) (§4 obligations 1–3).
// Positive queries need orderby(query) <= orderby(trig).
func (ck *Checker) Check(rules []RuleSpec) []Obligation {
	var out []Obligation
	for _, r := range rules {
		for _, p := range r.Puts {
			hyps := append(append([]Constraint{}, r.Invariants...), p.Guard...)
			ob := Obligation{
				Rule: r.Name, Kind: "put", Target: p.Table,
				Formula: fmt.Sprintf("inv(%s) ∧ guard ⟹ orderby(%s) ≤ orderby(%s)",
					r.Trigger, r.Trigger, p.Table),
			}
			ob.Proved, ob.Reason = ck.lexLE(hyps, r.TriggerKey, p.Key, false)
			out = append(out, ob)
		}
		for _, q := range r.Queries {
			strict := q.Kind != Positive
			rel := "≤"
			if strict {
				rel = "<"
			}
			hyps := append(append([]Constraint{}, r.Invariants...), q.Guard...)
			ob := Obligation{
				Rule: r.Name, Kind: "query", Target: q.Table,
				Formula: fmt.Sprintf("inv(%s) ∧ guard ⟹ orderby(%s(query)) %s orderby(%s)",
					r.Trigger, q.Table, rel, r.Trigger),
			}
			ob.Proved, ob.Reason = ck.lexLE(hyps, q.Key, r.TriggerKey, strict)
			out = append(out, ob)
		}
	}
	return out
}

// lexLE proves hyps ⟹ a ≤lex b (or a <lex b when strict). The proof
// refutes the negation: b <lex a (resp. b ≤lex a) is a disjunction over
// the level at which b first beats a; every disjunct must be inconsistent
// with the hypotheses.
func (ck *Checker) lexLE(hyps []Constraint, a, b []KeyExpr, strict bool) (bool, string) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	// Disjunct k (0-based): a[i] = b[i] for i < k, and b[k] < a[k].
	// For the non-strict goal we must also refute "all equal" only when
	// strict (negation of a < b includes equality).
	eqSoFar := append([]Constraint{}, hyps...)
	for k := 0; k < n; k++ {
		ak, bk := a[k], b[k]
		if (ak.Lit != "") != (bk.Lit != "") {
			return false, fmt.Sprintf("level %d mixes literal and expression components", k)
		}
		if ak.Lit != "" {
			// Literal components: decided by the partial order, no FM.
			switch {
			case ak.Lit == bk.Lit:
				continue // equal; move to next level
			case ck.po.Less(ak.Lit, bk.Lit):
				return true, "" // a strictly below b at this level: a <lex b
			case ck.po.Less(bk.Lit, ak.Lit):
				return false, fmt.Sprintf("level %d: %s > %s in the declared order", k, ak.Lit, bk.Lit)
			default:
				return false, fmt.Sprintf("level %d: literals %s and %s are incomparable — add an order declaration", k, ak.Lit, bk.Lit)
			}
		}
		// Expression components. Refute: eqSoFar ∧ b[k] < a[k].
		bad := append(append([]Constraint{}, eqSoFar...), LT(bk.Expr, ak.Expr))
		if Satisfiable(bad) {
			return false, fmt.Sprintf("level %d: cannot prove %s ≤ %s", k, ak.Expr.String(), bk.Expr.String())
		}
		// If a[k] < b[k] is entailed, the comparison is settled strictly.
		if Entails(eqSoFar, LT(ak.Expr, bk.Expr)) {
			return true, ""
		}
		// Otherwise continue under a[k] = b[k].
		eqSoFar = append(eqSoFar, EQ(ak.Expr, bk.Expr)...)
	}
	// All compared levels may be equal.
	switch {
	case len(a) < len(b):
		return true, "" // shorter key sorts first (prefix rule)
	case len(a) > len(b):
		return false, "key of left side extends the right side (left sorts after)"
	case strict:
		return false, "keys may be equal, but strict ordering is required (negative/aggregate query must read the strict past)"
	default:
		return true, ""
	}
}

// KeyOfSchema builds the symbolic causal key of a table's own tuples, with
// `seq`/`par` fields named prefix.field (e.g. "trig.frame").
func KeyOfSchema(s *tuple.Schema, prefix string) []KeyExpr {
	out := make([]KeyExpr, 0, len(s.OrderBy))
	for _, e := range s.OrderBy {
		switch e.Kind {
		case tuple.OrderLit:
			out = append(out, LitKey(e.Lit))
		default:
			out = append(out, ExprKey(Var(prefix+"."+e.Field)))
		}
	}
	return out
}

// Report formats obligations in the style of the compiler's warnings.
func Report(obs []Obligation) string {
	var b strings.Builder
	proved := 0
	for _, o := range obs {
		if o.Proved {
			proved++
			fmt.Fprintf(&b, "PROVED  rule %-20s %-5s %-12s %s\n", o.Rule, o.Kind, o.Target, o.Formula)
		} else {
			fmt.Fprintf(&b, "WARNING rule %-20s %-5s %-12s %s\n        cannot prove: %s\n",
				o.Rule, o.Kind, o.Target, o.Formula, o.Reason)
		}
	}
	fmt.Fprintf(&b, "%d/%d obligations proved\n", proved, len(obs))
	return b.String()
}

// AllProved reports whether every obligation was discharged.
func AllProved(obs []Obligation) bool {
	for _, o := range obs {
		if !o.Proved {
			return false
		}
	}
	return true
}
