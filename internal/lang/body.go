package lang

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"

	"github.com/jstar-lang/jstar/internal/causality"
	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/reduce"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// This file compiles rule bodies, the way JStar compiles each rule to a
// statically typed Java method. One pass over a rule types every
// expression from the declared schemas and builds, for each, a closure of
// its kind over a per-firing frame: a variable is a slot index, a field
// access a column index, and Java's int-to-double widening and `+` string
// concatenation are explicit conversions. A kind mismatch or an unknown
// name is therefore a located compile error. A firing fails only on an
// integer division or modulo by zero, on a null from `get uniq?` or
// `get min` that is dereferenced (a field access or a put), or with one
// of the engine's own errors.

// kind is the static type of an expression. The scalar kinds are the
// tuple kinds, so a column's kind is the kind of reading it.
type kind uint8

const (
	kInt    = kind(tuple.KindInt)
	kFloat  = kind(tuple.KindFloat)
	kString = kind(tuple.KindString)
	kBool   = kind(tuple.KindBool)
	kTuple  = kBool + 1 // a row of one table, or null
	kNull   = kBool + 2 // the null literal
	kStats  = kBool + 3 // a Statistics reducer
)

// typ is a kind plus, for kTuple, its table.
type typ struct {
	k   kind
	sch *tuple.Schema
}

func (t typ) String() string {
	switch t.k {
	case kTuple:
		return t.sch.Name
	case kNull:
		return "null"
	case kStats:
		return "Statistics"
	}
	return tuple.Kind(t.k).String()
}

func (t typ) numeric() bool { return t.k == kInt || t.k == kFloat }

// expr is a typed expression: the closure of its kind is set, t for both
// kTuple and kNull.
type expr struct {
	typ
	i  func(frame) int64
	f  func(frame) float64
	s  func(frame) string
	b  func(frame) bool
	t  func(frame) *tuple.Tuple
	st func(frame) *reduce.Statistics
}

// frame is one firing's state, passed by value in registers: its Ctx, its
// trigger, and one slot per other binding — each val, each loop variable
// and each get lambda's row. A rule that binds nothing but its trigger
// allocates nothing per firing; any other rule allocates its own slots per
// firing, so firings that run at once, on pool workers or nested by
// -noDelta's inline firing, share nothing.
type frame struct {
	ctx   *core.Ctx
	trig  *tuple.Tuple
	slots []slot
}

// slot holds one binding; a binding's kind fixes the one field it uses.
type slot struct {
	t  *tuple.Tuple // kTuple and kNull
	st *reduce.Statistics
	s  string
	i  int64
	f  float64
	b  bool
}

// trigger is the slot number of the rule's trigger, held in frame.trig.
const trigger = -1

// body types and compiles one rule body, or one top-level put's arguments.
// As it types a rule, it records the rule's contract (spec.go).
type body struct {
	c        *compiler
	vars     []binding     // the bindings in scope, innermost last
	slots    int           // slots allocated so far
	row      *tuple.Schema // the queried table while compiling a get lambda
	rowAt    int           // the lambda row's slot
	rowSym   string        // the lambda row's symbol in the contract
	contract *contract     // nil for a top-level put: no variables, no gets
}

type binding struct {
	name string
	typ
	slot int
	sym  string // its symbol in the contract
}

// bind allocates a frame slot for a new binding.
func (b *body) bind(name string, t typ) int {
	b.vars = append(b.vars, binding{name, t, b.slots, b.contract.symbol(name)})
	b.slots++
	return b.slots - 1
}

func (b *body) lookup(name string) (binding, bool) {
	for i := len(b.vars) - 1; i >= 0; i-- {
		if b.vars[i].name == name {
			return b.vars[i], true
		}
	}
	return binding{}, false
}

// block compiles a statement list in its own scope.
func (b *body) block(ss []Stmt) (func(frame), error) {
	mark := len(b.vars)
	defer func() { b.vars = b.vars[:mark] }()
	fs := make([]func(frame), len(ss))
	for i, s := range ss {
		f, err := b.stmt(s)
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	if len(fs) == 1 {
		return fs[0], nil
	}
	return func(fr frame) {
		for _, f := range fs {
			f(fr)
		}
	}, nil
}

func (b *body) stmt(s Stmt) (func(frame), error) {
	switch s := s.(type) {
	case *IfStmt:
		cond, err := b.expr(s.Cond)
		if err != nil {
			return nil, err
		}
		if cond.k != kBool {
			return nil, errf(s.Line, 1, "if condition is not boolean (got %s)", cond.typ)
		}
		// The then-branch runs under the condition's affine conjuncts too;
		// the else-branch does not, as the negation of a conjunction is
		// not a conjunction.
		outer := b.contract.guards
		b.contract.guards = append(slices.Clip(outer), b.guardConstraints(s.Cond)...)
		then, err := b.block(s.Then)
		b.contract.guards = outer
		if err != nil {
			return nil, err
		}
		els, err := b.block(s.Else)
		if err != nil {
			return nil, err
		}
		c := cond.b
		return func(fr frame) {
			if c(fr) {
				then(fr)
			} else {
				els(fr)
			}
		}, nil
	case *ValStmt:
		x, err := b.expr(s.Expr)
		if err != nil {
			return nil, err
		}
		return store(x, b.bind(s.Name, x.typ)), nil
	case *PutStmt:
		return b.put(s)
	case *PrintlnStmt:
		x, err := b.expr(s.Expr)
		if err != nil {
			return nil, err
		}
		str := render(x)
		return func(fr frame) { fr.ctx.Println(str(fr)) }, nil
	case *ForStmt:
		q, err := b.query(s.Query)
		if err != nil {
			return nil, err
		}
		b.accumulated("")
		mark := len(b.vars)
		slot := b.bind(s.Var, typ{k: kTuple, sch: q.s})
		loop, err := b.block(s.Body)
		b.vars = b.vars[:mark]
		if err != nil {
			return nil, err
		}
		return func(fr frame) {
			var buf [tuple.InlineFields]tuple.Value
			fr.ctx.ForEach(q.s, gamma.Query{Prefix: values(fr, q.prefix, &buf), Where: q.filter(fr)}, func(t *tuple.Tuple) bool {
				fr.slots[slot].t = t
				loop(fr)
				return true
			})
		}, nil
	case *AccumStmt:
		v, ok := b.lookup(s.Name)
		if !ok {
			return nil, errf(s.Line, 1, "unknown variable %s", s.Name)
		}
		x, err := b.expr(s.Expr)
		if err != nil {
			return nil, err
		}
		b.accumulated(s.Name)
		slot := v.slot
		switch {
		case v.k == kInt && x.k == kInt:
			f := x.i
			return func(fr frame) { fr.slots[slot].i += f(fr) }, nil
		case v.k == kInt:
			return nil, errf(s.Line, 1, "int accumulator += non-int %s", x.typ)
		case v.k == kFloat && x.numeric():
			f := toFloat(x)
			return func(fr frame) { fr.slots[slot].f += f(fr) }, nil
		case v.k == kStats && x.numeric():
			f := toFloat(x)
			return func(fr frame) { fr.slots[slot].st.Add(f(fr)) }, nil
		case v.k == kFloat || v.k == kStats:
			return nil, errf(s.Line, 1, "%s += non-numeric %s", v.typ, x.typ)
		}
		return nil, errf(s.Line, 1, "%s is not an accumulator (got %s)", s.Name, v.typ)
	}
	return nil, fmt.Errorf("jstar: unknown statement %T", s)
}

// put compiles `put x`. `put new T(...)` writes its arguments into the
// firing's stack scratch and hands them to Ctx.PutNew, which builds the
// tuple only if it is not a repeat of the slot's previous put.
func (b *body) put(s *PutStmt) (func(frame), error) {
	if ne, ok := s.Expr.(*NewExpr); ok && ne.Table != "Statistics" {
		sch, args, err := b.newArgs(ne)
		if err != nil {
			return nil, err
		}
		b.notePut(sch, ne.Args)
		return func(fr frame) {
			var buf [tuple.InlineFields]tuple.Value
			fr.ctx.PutNew(sch, values(fr, args, &buf)...)
		}, nil
	}
	x, err := b.expr(s.Expr)
	if err != nil {
		return nil, err
	}
	if x.k != kTuple {
		return nil, errf(s.Line, 1, "put requires a tuple (got %s)", x.typ)
	}
	b.notePut(x.sch, nil)
	t, null := x.t, errf(s.Line, 1, "put of null (guard with != null)")
	return func(fr frame) {
		v := t(fr)
		if v == nil {
			panic(null)
		}
		fr.ctx.Put(v)
	}, nil
}

// store compiles binding x's value to a slot.
func store(x expr, slot int) func(frame) {
	switch x.k {
	case kInt:
		f := x.i
		return func(fr frame) { fr.slots[slot].i = f(fr) }
	case kFloat:
		f := x.f
		return func(fr frame) { fr.slots[slot].f = f(fr) }
	case kString:
		f := x.s
		return func(fr frame) { fr.slots[slot].s = f(fr) }
	case kBool:
		f := x.b
		return func(fr frame) { fr.slots[slot].b = f(fr) }
	case kStats:
		f := x.st
		return func(fr frame) { fr.slots[slot].st = f(fr) }
	}
	f := x.t
	return func(fr frame) { fr.slots[slot].t = f(fr) }
}

// load compiles a read of a slot holding a value of type t.
func load(t typ, slot int) expr {
	x := expr{typ: t}
	switch t.k {
	case kInt:
		x.i = func(fr frame) int64 { return fr.slots[slot].i }
	case kFloat:
		x.f = func(fr frame) float64 { return fr.slots[slot].f }
	case kString:
		x.s = func(fr frame) string { return fr.slots[slot].s }
	case kBool:
		x.b = func(fr frame) bool { return fr.slots[slot].b }
	case kStats:
		x.st = func(fr frame) *reduce.Statistics { return fr.slots[slot].st }
	case kTuple, kNull:
		x.t = func(fr frame) *tuple.Tuple { return fr.slots[slot].t }
	}
	if slot == trigger {
		x.t = func(fr frame) *tuple.Tuple { return fr.trig }
	}
	return x
}

func (b *body) expr(e Expr) (expr, error) {
	switch e := e.(type) {
	case *IntLit:
		v := e.V
		return expr{typ: typ{k: kInt}, i: func(frame) int64 { return v }}, nil
	case *FloatLit:
		v := e.V
		return expr{typ: typ{k: kFloat}, f: func(frame) float64 { return v }}, nil
	case *StrLit:
		v := e.V
		return expr{typ: typ{k: kString}, s: func(frame) string { return v }}, nil
	case *BoolLit:
		v := e.V
		return expr{typ: typ{k: kBool}, b: func(frame) bool { return v }}, nil
	case *NullLit:
		return expr{typ: typ{k: kNull}, t: func(frame) *tuple.Tuple { return nil }}, nil
	case *VarRef:
		// Inside a get lambda, unqualified names are the queried row's
		// columns first, then variables.
		if b.isColumn(e.Name) {
			return field(load(typ{k: kTuple, sch: b.row}, b.rowAt), e.Name, e.Line)
		}
		if v, ok := b.lookup(e.Name); ok {
			return load(v.typ, v.slot), nil
		}
		return expr{}, errf(e.Line, 1, "unknown variable %s", e.Name)
	case *FieldAccess:
		x, err := b.expr(e.X)
		if err != nil {
			return expr{}, err
		}
		return field(x, e.Field, e.Line)
	case *Unary:
		return b.unary(e)
	case *Binary:
		return b.binary(e)
	case *NewExpr:
		if e.Table == "Statistics" {
			if len(e.Args) != 0 {
				return expr{}, errf(e.Line, 1, "new Statistics takes no arguments")
			}
			return expr{typ: typ{k: kStats}, st: func(frame) *reduce.Statistics { return reduce.NewStatistics() }}, nil
		}
		s, args, err := b.newArgs(e)
		if err != nil {
			return expr{}, err
		}
		return expr{typ: typ{k: kTuple, sch: s}, t: func(fr frame) *tuple.Tuple {
			var buf [tuple.InlineFields]tuple.Value
			return tuple.New(s, values(fr, args, &buf)...)
		}}, nil
	case *GetExpr:
		return b.get(e)
	case *CallExpr:
		return b.call(e)
	}
	return expr{}, fmt.Errorf("jstar: unknown expression %T", e)
}

// field compiles x.name: a column of a tuple, or a Statistics property.
func field(x expr, name string, line int) (expr, error) {
	switch x.k {
	case kTuple:
		i := x.sch.ColumnIndex(name)
		if i < 0 {
			return expr{}, errf(line, 1, "table %s has no column %s", x.sch.Name, name)
		}
		row, null := x.t, errf(line, 1, "field access .%s on null (guard with != null)", name)
		k := x.sch.Columns[i].Kind
		out := expr{typ: typ{k: kind(k)}}
		switch k {
		case tuple.KindInt:
			out.i = column(row, i, null, tuple.Value.AsInt)
		case tuple.KindFloat:
			out.f = column(row, i, null, tuple.Value.AsFloat)
		case tuple.KindString:
			out.s = column(row, i, null, tuple.Value.AsString)
		case tuple.KindBool:
			out.b = column(row, i, null, tuple.Value.AsBool)
		}
		return out, nil
	case kStats:
		st, f := x.st, (*reduce.Statistics).Mean
		switch name {
		case "count":
			return expr{typ: typ{k: kInt}, i: func(fr frame) int64 { return st(fr).N }}, nil
		case "sum":
			f = func(s *reduce.Statistics) float64 { return s.Sum }
		case "min":
			f = func(s *reduce.Statistics) float64 { return s.MinV }
		case "max":
			f = func(s *reduce.Statistics) float64 { return s.MaxV }
		case "mean":
		default:
			return expr{}, errf(line, 1, "Statistics has no property %s", name)
		}
		return expr{typ: typ{k: kFloat}, f: func(fr frame) float64 { return f(st(fr)) }}, nil
	}
	return expr{}, errf(line, 1, "field access .%s on %s", name, x.typ)
}

// column reads column i of row's tuple, which may be a null from a get.
func column[T any](row func(frame) *tuple.Tuple, i int, null error, as func(tuple.Value) T) func(frame) T {
	return func(fr frame) T {
		t := row(fr)
		if t == nil {
			panic(null)
		}
		return as(t.Field(i))
	}
}

func (b *body) unary(e *Unary) (expr, error) {
	x, err := b.expr(e.X)
	if err != nil {
		return expr{}, err
	}
	switch {
	case e.Op == "-" && x.k == kInt:
		f := x.i
		return expr{typ: x.typ, i: func(fr frame) int64 { return -f(fr) }}, nil
	case e.Op == "-" && x.k == kFloat:
		f := x.f
		return expr{typ: x.typ, f: func(fr frame) float64 { return -f(fr) }}, nil
	case e.Op == "!" && x.k == kBool:
		f := x.b
		return expr{typ: x.typ, b: func(fr frame) bool { return !f(fr) }}, nil
	}
	return expr{}, errf(e.Line, 1, "unary %s on %s", e.Op, x.typ)
}

func (b *body) binary(e *Binary) (expr, error) {
	l, err := b.expr(e.L)
	if err != nil {
		return expr{}, err
	}
	r, err := b.expr(e.R)
	if err != nil {
		return expr{}, err
	}
	op := e.Op
	boolean := func(f func(frame) bool) (expr, error) { return expr{typ: typ{k: kBool}, b: f}, nil }
	switch {
	case op == "&&" || op == "||":
		if l.k != kBool || r.k != kBool {
			return expr{}, errf(e.Line, 1, "%s on %s and %s: both must be boolean", op, l.typ, r.typ)
		}
		lf, rf := l.b, r.b
		if op == "&&" {
			return boolean(func(fr frame) bool { return lf(fr) && rf(fr) })
		}
		return boolean(func(fr frame) bool { return lf(fr) || rf(fr) })
	case op == "==" || op == "!=":
		ne := op == "!="
		switch {
		case l.k == kInt && r.k == kInt:
			return boolean(equal(ne, l.i, r.i))
		case l.numeric() && r.numeric():
			return boolean(equal(ne, toFloat(l), toFloat(r)))
		case l.k == kString && r.k == kString:
			return boolean(equal(ne, l.s, r.s))
		case l.k == kBool && r.k == kBool:
			return boolean(equal(ne, l.b, r.b))
		case (l.k == kTuple || l.k == kNull) && (r.k == kTuple || r.k == kNull):
			lf, rf := l.t, r.t
			return boolean(func(fr frame) bool {
				a, b := lf(fr), rf(fr)
				if a == nil || b == nil {
					return (a == b) != ne
				}
				return a.Equal(b) != ne
			})
		}
		return expr{}, errf(e.Line, 1, "cannot compare %s and %s", l.typ, r.typ)
	case op == "+" && (l.k == kString || r.k == kString):
		lf, rf := render(l), render(r)
		return expr{typ: typ{k: kString}, s: func(fr frame) string { return lf(fr) + rf(fr) }}, nil
	case l.k == kInt && r.k == kInt:
		if f := ordered(op, l.i, r.i); f != nil {
			return boolean(f)
		}
		if f := intArith(e, l.i, r.i); f != nil {
			return expr{typ: l.typ, i: f}, nil
		}
	case l.numeric() && r.numeric():
		lf, rf := toFloat(l), toFloat(r)
		if f := ordered(op, lf, rf); f != nil {
			return boolean(f)
		}
		if f := floatArith(op, lf, rf); f != nil {
			return expr{typ: typ{k: kFloat}, f: f}, nil
		}
	case l.k == kString && r.k == kString:
		if f := ordered(op, l.s, r.s); f != nil {
			return boolean(f)
		}
	}
	return expr{}, errf(e.Line, 1, "operator %s on %s and %s", op, l.typ, r.typ)
}

// equal compiles l == r, or l != r when ne is set.
func equal[T comparable](ne bool, l, r func(frame) T) func(frame) bool {
	return func(fr frame) bool { return (l(fr) == r(fr)) != ne }
}

// ordered compiles a comparison, or returns nil if op is not one.
func ordered[T cmp.Ordered](op string, l, r func(frame) T) func(frame) bool {
	switch op {
	case "<":
		return func(fr frame) bool { return l(fr) < r(fr) }
	case "<=":
		return func(fr frame) bool { return l(fr) <= r(fr) }
	case ">":
		return func(fr frame) bool { return l(fr) > r(fr) }
	case ">=":
		return func(fr frame) bool { return l(fr) >= r(fr) }
	}
	return nil
}

// arith compiles +, - or *, or returns nil for any other op.
func arith[T int64 | float64](op string, l, r func(frame) T) func(frame) T {
	switch op {
	case "+":
		return func(fr frame) T { return l(fr) + r(fr) }
	case "-":
		return func(fr frame) T { return l(fr) - r(fr) }
	case "*":
		return func(fr frame) T { return l(fr) * r(fr) }
	}
	return nil
}

// intArith is arith plus / and %, which fail the firing on a zero divisor.
func intArith(e *Binary, l, r func(frame) int64) func(frame) int64 {
	if e.Op != "/" && e.Op != "%" {
		return arith(e.Op, l, r)
	}
	mod, zero := e.Op == "%", errf(e.Line, 1, "integer division by zero")
	if mod {
		zero = errf(e.Line, 1, "integer modulo by zero")
	}
	return func(fr frame) int64 {
		n, d := l(fr), r(fr)
		switch {
		case d == 0:
			panic(zero)
		case mod:
			return n % d
		}
		return n / d
	}
}

// floatArith is arith plus / and %, which follow IEEE 754 and math.Mod.
func floatArith(op string, l, r func(frame) float64) func(frame) float64 {
	switch op {
	case "/":
		return func(fr frame) float64 { return l(fr) / r(fr) }
	case "%":
		return func(fr frame) float64 { return math.Mod(l(fr), r(fr)) }
	}
	return arith(op, l, r)
}

// toFloat widens a numeric expression to double.
func toFloat(x expr) func(frame) float64 {
	if x.k == kFloat {
		return x.f
	}
	f := x.i
	return func(fr frame) float64 { return float64(f(fr)) }
}

// render formats x for println and string concatenation.
func render(x expr) func(frame) string {
	switch x.k {
	case kString:
		return x.s
	case kInt:
		f := x.i
		return func(fr frame) string { return strconv.FormatInt(f(fr), 10) }
	case kFloat:
		f := x.f
		return func(fr frame) string { return strconv.FormatFloat(f(fr), 'g', -1, 64) }
	case kBool:
		f := x.b
		return func(fr frame) string { return strconv.FormatBool(f(fr)) }
	case kStats:
		f := x.st
		return func(fr frame) string {
			s := f(fr)
			return fmt.Sprintf("Statistics(n=%d, mean=%g)", s.N, s.Mean())
		}
	}
	f := x.t
	return func(fr frame) string {
		if t := f(fr); t != nil {
			return t.String()
		}
		return "null"
	}
}

// value converts x to a column of kind k, widening an int to a double
// column; it returns nil if x cannot fill such a column.
func value(x expr, k tuple.Kind) func(frame) tuple.Value {
	switch {
	case k == tuple.KindInt && x.k == kInt:
		f := x.i
		return func(fr frame) tuple.Value { return tuple.Int(f(fr)) }
	case k == tuple.KindFloat && x.numeric():
		f := toFloat(x)
		return func(fr frame) tuple.Value { return tuple.Float(f(fr)) }
	case k == tuple.KindString && x.k == kString:
		f := x.s
		return func(fr frame) tuple.Value { return tuple.String_(f(fr)) }
	case k == tuple.KindBool && x.k == kBool:
		f := x.b
		return func(fr frame) tuple.Value { return tuple.Bool(f(fr)) }
	}
	return nil
}

// values evaluates a put's arguments or a query's prefix into buf, the
// caller's stack scratch, when they fit.
func values(fr frame, fs []func(frame) tuple.Value, buf *[tuple.InlineFields]tuple.Value) []tuple.Value {
	vs := buf[:0]
	if len(fs) > len(buf) {
		vs = make([]tuple.Value, 0, len(fs))
	}
	for _, f := range fs {
		vs = append(vs, f(fr))
	}
	return vs
}

// newArgs resolves `new T(args)`'s table and compiles each argument to its
// column's kind.
func (b *body) newArgs(e *NewExpr) (*tuple.Schema, []func(frame) tuple.Value, error) {
	s, err := b.c.schema(e.Table, e.Line)
	if err != nil {
		return nil, nil, err
	}
	if len(e.Args) != s.Arity() {
		return nil, nil, errf(e.Line, 1, "new %s: %d args, table has %d columns", e.Table, len(e.Args), s.Arity())
	}
	args := make([]func(frame) tuple.Value, len(e.Args))
	for i, a := range e.Args {
		x, err := b.expr(a)
		if err != nil {
			return nil, nil, err
		}
		col := s.Columns[i]
		if args[i] = value(x, col.Kind); args[i] == nil {
			return nil, nil, errf(e.Line, 1, "new %s field %s: cannot use %s as %v", e.Table, col.Name, x.typ, col.Kind)
		}
	}
	return s, args, nil
}

// query is a compiled get: its table, its equality prefix and its lambda,
// which reads the queried row from frame slot row.
type query struct {
	s      *tuple.Schema
	prefix []func(frame) tuple.Value
	where  func(frame) bool
	row    int
}

// filter is q's lambda as a gamma.Query.Where for one firing.
func (q *query) filter(fr frame) func(*tuple.Tuple) bool {
	if q.where == nil {
		return nil
	}
	return func(t *tuple.Tuple) bool {
		fr.slots[q.row].t = t
		return q.where(fr)
	}
}

func (b *body) query(g *GetExpr) (*query, error) {
	if b.contract == nil {
		return nil, errf(g.Line, 1, "get queries are not allowed in top-level puts")
	}
	s, err := b.c.schema(g.Table, g.Line)
	if err != nil {
		return nil, err
	}
	if len(g.Args) > s.Arity() {
		return nil, errf(g.Line, 1, "get %s: %d args exceed %d columns", g.Table, len(g.Args), s.Arity())
	}
	if b.row != nil {
		return nil, errf(g.Line, 1, "nested get inside a query lambda is not supported")
	}
	q := &query{s: s, prefix: make([]func(frame) tuple.Value, len(g.Args))}
	for i, a := range g.Args {
		x, err := b.expr(a)
		if err != nil {
			return nil, err
		}
		if q.prefix[i] = value(x, s.Columns[i].Kind); q.prefix[i] == nil {
			return nil, errf(g.Line, 1, "get %s arg %d: cannot use %s as %v", g.Table, i+1, x.typ, s.Columns[i].Kind)
		}
	}
	qv := b.contract.freshVar("q")
	var where []causality.Constraint
	if g.Lambda != nil {
		q.row = b.slots
		b.slots++
		b.row, b.rowAt, b.rowSym = s, q.row, qv
		where = b.guardConstraints(g.Lambda)
		x, err := b.expr(g.Lambda)
		b.row = nil
		if err != nil {
			return nil, err
		}
		if x.k != kBool {
			return nil, errf(g.Line, 1, "query lambda is not boolean (got %s)", x.typ)
		}
		q.where = x.b
	}
	b.noteQuery(g, s, qv, where)
	return q, nil
}

// isColumn reports whether name is a column of the queried row, which an
// unqualified name in a get lambda reads before any variable.
func (b *body) isColumn(name string) bool {
	return b.row != nil && b.row.ColumnIndex(name) >= 0
}

// get compiles a get expression; the iterable form belongs to for loops.
func (b *body) get(g *GetExpr) (expr, error) {
	q, err := b.query(g)
	if err != nil {
		return expr{}, err
	}
	row := typ{k: kTuple, sch: q.s}
	switch g.Mode {
	case GetUniq:
		return expr{typ: row, t: func(fr frame) *tuple.Tuple {
			var buf [tuple.InlineFields]tuple.Value
			return fr.ctx.GetUniq(q.s, gamma.Query{Prefix: values(fr, q.prefix, &buf), Where: q.filter(fr)})
		}}, nil
	case GetMin:
		col := minColumn(q.s)
		return expr{typ: row, t: func(fr frame) *tuple.Tuple {
			var buf [tuple.InlineFields]tuple.Value
			return fr.ctx.GetMin(q.s, gamma.Query{Prefix: values(fr, q.prefix, &buf), Where: q.filter(fr)}, col)
		}}, nil
	case GetCount:
		return expr{typ: typ{k: kInt}, i: func(fr frame) int64 {
			var buf [tuple.InlineFields]tuple.Value
			return int64(fr.ctx.Count(q.s, gamma.Query{Prefix: values(fr, q.prefix, &buf), Where: q.filter(fr)}))
		}}, nil
	}
	return expr{}, errf(g.Line, 1, "iterable get %s used outside a for loop", g.Table)
}

// minColumn picks the field `get min` minimises: the table's first seq
// orderby field, else its first int/double column.
func minColumn(s *tuple.Schema) string {
	for i, e := range s.OrderBy {
		if e.Kind == tuple.OrderSeq {
			return s.Columns[s.OrderByColumn(i)].Name
		}
	}
	for _, c := range s.Columns {
		if c.Kind == tuple.KindInt || c.Kind == tuple.KindFloat {
			return c.Name
		}
	}
	return s.Columns[0].Name
}

// call compiles the builtins min, max and abs.
func (b *body) call(e *CallExpr) (expr, error) {
	xs := make([]expr, len(e.Args))
	for i, a := range e.Args {
		x, err := b.expr(a)
		if err != nil {
			return expr{}, err
		}
		xs[i] = x
	}
	if e.Fn == "abs" {
		if len(xs) != 1 {
			return expr{}, errf(e.Line, 1, "abs takes 1 argument")
		}
		switch x := xs[0]; x.k {
		case kInt:
			f := x.i
			return expr{typ: x.typ, i: func(fr frame) int64 { v := f(fr); return max(v, -v) }}, nil
		case kFloat:
			f := x.f
			return expr{typ: x.typ, f: func(fr frame) float64 { return math.Abs(f(fr)) }}, nil
		}
		return expr{}, errf(e.Line, 1, "abs on %s", xs[0].typ)
	}
	// min or max, the parser's only other builtins.
	if len(xs) != 2 {
		return expr{}, errf(e.Line, 1, "%s takes 2 arguments", e.Fn)
	}
	l, r := xs[0], xs[1]
	switch {
	case l.k == kInt && r.k == kInt:
		lf, rf := l.i, r.i
		if e.Fn == "min" {
			return expr{typ: l.typ, i: func(fr frame) int64 { return min(lf(fr), rf(fr)) }}, nil
		}
		return expr{typ: l.typ, i: func(fr frame) int64 { return max(lf(fr), rf(fr)) }}, nil
	case l.numeric() && r.numeric():
		lf, rf, f := toFloat(l), toFloat(r), math.Max
		if e.Fn == "min" {
			f = math.Min
		}
		return expr{typ: typ{k: kFloat}, f: func(fr frame) float64 { return f(lf(fr), rf(fr)) }}, nil
	}
	return expr{}, errf(e.Line, 1, "%s on %s and %s", e.Fn, l.typ, r.typ)
}
