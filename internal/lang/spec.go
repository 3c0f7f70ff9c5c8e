package lang

import (
	"fmt"
	"slices"

	"github.com/jstar-lang/jstar/internal/causality"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// This file translates a rule body into a symbolic causality.RuleSpec, its
// contract, as the typing pass (body.go) types it: the trigger's key, each
// put's key and each get's key and kind, under the affine if guards in
// scope. Names resolve through the typing pass's own scopes, so a binding
// is the binding the closures read: every binding has its own symbol (a
// shadowing one is renamed x#2), and an unqualified column in a lambda is
// the queried row's, bound to a fresh q-variable. cmd/jstar-check discharges
// the §4 proof obligations on these contracts, and emitPlanHints reads
// their gets' prefixes. The translation is a sound best-effort: a key
// component that is affine (c0 + c1*x.field ± ...) becomes a linear
// expression and any other a fresh unconstrained variable, and a guard
// that is not an affine comparison is dropped — both only make obligations
// harder to prove, never easier.

// contract is one rule's RuleSpec while the rule is typed.
type contract struct {
	causality.RuleSpec
	guards []causality.Constraint // the affine if guards in scope
	taken  map[string]bool        // the symbols in use
	fresh  int
}

// symbol returns an unused symbol: name itself if free, else name#2, ...
func (ct *contract) symbol(name string) string {
	sym := name
	for n := 2; ct.taken[sym]; n++ {
		sym = fmt.Sprintf("%s#%d", name, n)
	}
	ct.taken[sym] = true
	return sym
}

// freshVar returns a new variable named after hint, e.g. q3 or $put4.
func (ct *contract) freshVar(hint string) string {
	for {
		ct.fresh++
		if v := fmt.Sprintf("%s%d", hint, ct.fresh); !ct.taken[v] {
			ct.taken[v] = true
			return v
		}
	}
}

// accumulated gives the accumulator in scope named name, or every one when
// name is "", a new symbol: += changes an accumulator's value, so no guard
// on its old value holds of its new one. A loop body may run after its own
// +=, so it starts with every accumulator renamed.
func (b *body) accumulated(name string) {
	for i := len(b.vars) - 1; i >= 0; i-- {
		v := &b.vars[i]
		if (v.k == kInt || v.k == kFloat || v.k == kStats) && (name == "" || v.name == name) {
			v.sym = b.contract.symbol(v.name)
			if name != "" {
				return
			}
		}
	}
}

// notePut records a put of a row of s: `put new T(args)`, or with args nil
// a put of a tuple value, whose key is unknown.
func (b *body) notePut(s *tuple.Schema, args []Expr) {
	b.contract.Puts = append(b.contract.Puts, causality.PutSpec{
		Table: s.Name,
		Guard: slices.Clone(b.contract.guards),
		Key: b.key(s, args, func(string) causality.Expr {
			return causality.Var(b.contract.freshVar("$put"))
		}),
	})
}

// noteQuery records get g of s, whose lambda guards are where.
func (b *body) noteQuery(g *GetExpr, s *tuple.Schema, qv string, where []causality.Constraint) {
	kind := causality.Positive
	switch g.Mode {
	case GetUniq:
		// `get uniq? T(...)` used as existence check; its result can
		// be invalidated by future puts, so it is a negative query.
		kind = causality.Negative
	case GetMin, GetCount:
		kind = causality.Aggregate
	}
	b.contract.Queries = append(b.contract.Queries, causality.QuerySpec{
		Table:  g.Table,
		Kind:   kind,
		Prefix: len(g.Args),
		Guard:  append(slices.Clone(b.contract.guards), where...),
		Key: b.key(s, g.Args, func(field string) causality.Expr {
			return causality.Var(qv + "." + field)
		}),
	})
}

// key is the symbolic orderby key of a row of s whose first columns are
// args: an affine argument is its linear form, and any other field is
// other(field).
func (b *body) key(s *tuple.Schema, args []Expr, other func(field string) causality.Expr) []causality.KeyExpr {
	out := make([]causality.KeyExpr, len(s.OrderBy))
	for i, e := range s.OrderBy {
		if e.Kind == tuple.OrderLit {
			out[i] = causality.LitKey(e.Lit)
			continue
		}
		if c := s.OrderByColumn(i); c < len(args) {
			if a, ok := b.affine(args[c]); ok {
				out[i] = causality.ExprKey(a)
				continue
			}
		}
		out[i] = causality.ExprKey(other(e.Field))
	}
	return out
}

// affine converts an expression over the bindings in scope into a linear
// expression; ok is false for non-affine shapes.
func (b *body) affine(e Expr) (causality.Expr, bool) {
	switch e := e.(type) {
	case *IntLit:
		return causality.Const(e.V), true
	case *FieldAccess:
		if vr, ok := e.X.(*VarRef); ok && !b.isColumn(vr.Name) {
			if v, ok := b.lookup(vr.Name); ok {
				return causality.Var(v.sym + "." + e.Field), true
			}
		}
		return causality.Expr{}, false
	case *VarRef:
		if b.isColumn(e.Name) {
			return causality.Var(b.rowSym + "." + e.Name), true
		}
		if v, ok := b.lookup(e.Name); ok {
			return causality.Var(v.sym), true
		}
		return causality.Expr{}, false
	case *Unary:
		if e.Op == "-" {
			if x, ok := b.affine(e.X); ok {
				return x.Scale(-1), true
			}
		}
		return causality.Expr{}, false
	case *Binary:
		l, lok := b.affine(e.L)
		r, rok := b.affine(e.R)
		if !lok || !rok {
			return causality.Expr{}, false
		}
		switch e.Op {
		case "+":
			return l.Add(r), true
		case "-":
			return l.Sub(r), true
		case "*":
			// Affine only when one side is constant.
			if k, isConst := l.IsConst(); isConst && k.IsInt() {
				return r.Scale(k.Num().Int64()), true
			}
			if k, isConst := r.IsConst(); isConst && k.IsInt() {
				return l.Scale(k.Num().Int64()), true
			}
		}
		return causality.Expr{}, false
	default:
		return causality.Expr{}, false
	}
}

// guardConstraints converts a boolean condition into linear constraints
// (best effort: non-affine conjuncts are dropped).
func (b *body) guardConstraints(cond Expr) []causality.Constraint {
	switch e := cond.(type) {
	case *Binary:
		switch e.Op {
		case "&&":
			return append(b.guardConstraints(e.L), b.guardConstraints(e.R)...)
		case "<", "<=", ">", ">=", "==":
			l, lok := b.affine(e.L)
			r, rok := b.affine(e.R)
			if !lok || !rok {
				return nil
			}
			switch e.Op {
			case "<":
				return []causality.Constraint{causality.LT(l, r)}
			case "<=":
				return []causality.Constraint{causality.LE(l, r)}
			case ">":
				return []causality.Constraint{causality.GT(l, r)}
			case ">=":
				return []causality.Constraint{causality.GE(l, r)}
			case "==":
				return causality.EQ(l, r)
			}
		}
	}
	return nil
}
