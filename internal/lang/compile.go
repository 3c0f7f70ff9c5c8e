package lang

import (
	"fmt"
	"sync"

	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/reduce"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// Compile loads a parsed file onto a fresh engine Program. Name resolution
// and arity checks happen here (the static errors XText would report);
// value-level type errors surface at run time, as in the generated Java.
func Compile(f *File) (*core.Program, error) {
	c := &compiler{prog: core.NewProgram(), tables: map[string]*tuple.Schema{}}
	// Pass 1: tables and orders (rules may reference later tables).
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *TableDecl:
			if err := c.table(d); err != nil {
				return nil, err
			}
		case *OrderDecl:
			if err := c.order(d); err != nil {
				return nil, err
			}
		}
	}
	// Pass 2: rules and puts.
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *PutDecl:
			if err := c.topPut(d); err != nil {
				return nil, err
			}
		case *RuleDecl:
			if err := c.rule(d); err != nil {
				return nil, err
			}
		}
	}
	// Pass 3: static store-plan hints from the file's query patterns.
	c.emitPlanHints(f)
	return c.prog, nil
}

// CompileSource parses and compiles JStar source text.
func CompileSource(src string) (*core.Program, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(f)
}

type compiler struct {
	prog   *core.Program
	tables map[string]*tuple.Schema
	nrules int
}

func kindOf(ty string) tuple.Kind {
	switch ty {
	case "int":
		return tuple.KindInt
	case "double":
		return tuple.KindFloat
	case "String":
		return tuple.KindString
	case "boolean":
		return tuple.KindBool
	}
	return tuple.KindInvalid
}

func (c *compiler) table(d *TableDecl) error {
	if _, dup := c.tables[d.Name]; dup {
		return errf(d.Line, 1, "table %s declared twice", d.Name)
	}
	cols := make([]tuple.Column, len(d.Cols))
	for i, col := range d.Cols {
		cols[i] = tuple.Column{Name: col.Name, Kind: kindOf(col.Type), Key: col.Key}
	}
	var ob []tuple.OrderEntry
	for _, e := range d.OrderBy {
		switch e.Kind {
		case "lit":
			ob = append(ob, tuple.Lit(e.Name))
		case "seq":
			ob = append(ob, tuple.Seq(e.Name))
		case "par":
			ob = append(ob, tuple.Par(e.Name))
		}
	}
	s, err := tuple.NewSchema(d.Name, cols, ob)
	if err != nil {
		return errf(d.Line, 1, "%v", err)
	}
	// Register through the program so literal names are touched.
	c.tables[d.Name] = c.prog.Table(d.Name, s.Columns, s.OrderBy)
	return nil
}

func (c *compiler) order(d *OrderDecl) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = errf(d.Line, 1, "%v", p) // cyclic order declaration
		}
	}()
	c.prog.Order(d.Names...)
	return nil
}

func (c *compiler) schema(name string, line int) (*tuple.Schema, error) {
	s, ok := c.tables[name]
	if !ok {
		return nil, errf(line, 1, "unknown table %s", name)
	}
	return s, nil
}

func (c *compiler) topPut(d *PutDecl) error {
	s, err := c.schema(d.Expr.Table, d.Line)
	if err != nil {
		return err
	}
	if len(d.Expr.Args) != s.Arity() {
		return errf(d.Line, 1, "new %s: %d args, table has %d columns",
			s.Name, len(d.Expr.Args), s.Arity())
	}
	// Top-level puts may only use constant expressions.
	env := &env{}
	vals := make([]tuple.Value, len(d.Expr.Args))
	for i, a := range d.Expr.Args {
		v, err := c.eval(nil, env, a)
		if err != nil {
			return errf(d.Line, 1, "top-level put: %v", err)
		}
		vals[i], err = toValue(v, s.Columns[i].Kind)
		if err != nil {
			return errf(d.Line, 1, "top-level put field %s: %v", s.Columns[i].Name, err)
		}
	}
	c.prog.Put(tuple.New(s, vals...))
	return nil
}

// staticCheck walks rule bodies resolving table names and arities.
func (c *compiler) staticCheck(stmts []Stmt) error {
	var walkExpr func(e Expr) error
	walkExpr = func(e Expr) error {
		switch e := e.(type) {
		case *NewExpr:
			if e.Table == "Statistics" {
				if len(e.Args) != 0 {
					return errf(e.Line, 1, "new Statistics takes no arguments")
				}
				return nil
			}
			s, err := c.schema(e.Table, e.Line)
			if err != nil {
				return err
			}
			if len(e.Args) != s.Arity() {
				return errf(e.Line, 1, "new %s: %d args, table has %d columns",
					e.Table, len(e.Args), s.Arity())
			}
			for _, a := range e.Args {
				if err := walkExpr(a); err != nil {
					return err
				}
			}
		case *GetExpr:
			s, err := c.schema(e.Table, e.Line)
			if err != nil {
				return err
			}
			if len(e.Args) > s.Arity() {
				return errf(e.Line, 1, "get %s: %d args exceed %d columns",
					e.Table, len(e.Args), s.Arity())
			}
			for _, a := range e.Args {
				if err := walkExpr(a); err != nil {
					return err
				}
			}
			if e.Lambda != nil {
				if err := walkExpr(e.Lambda); err != nil {
					return err
				}
			}
		case *Binary:
			if err := walkExpr(e.L); err != nil {
				return err
			}
			return walkExpr(e.R)
		case *Unary:
			return walkExpr(e.X)
		case *FieldAccess:
			return walkExpr(e.X)
		case *CallExpr:
			for _, a := range e.Args {
				if err := walkExpr(a); err != nil {
					return err
				}
			}
		}
		return nil
	}
	var walkStmts func(ss []Stmt) error
	walkStmts = func(ss []Stmt) error {
		for _, s := range ss {
			switch s := s.(type) {
			case *IfStmt:
				if err := walkExpr(s.Cond); err != nil {
					return err
				}
				if err := walkStmts(s.Then); err != nil {
					return err
				}
				if err := walkStmts(s.Else); err != nil {
					return err
				}
			case *ValStmt:
				if err := walkExpr(s.Expr); err != nil {
					return err
				}
			case *PutStmt:
				if err := walkExpr(s.Expr); err != nil {
					return err
				}
			case *PrintlnStmt:
				if err := walkExpr(s.Expr); err != nil {
					return err
				}
			case *ForStmt:
				if err := walkExpr(s.Query); err != nil {
					return err
				}
				if err := walkStmts(s.Body); err != nil {
					return err
				}
			case *AccumStmt:
				if err := walkExpr(s.Expr); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return walkStmts(stmts)
}

func (c *compiler) rule(d *RuleDecl) error {
	trig, err := c.schema(d.Table, d.Line)
	if err != nil {
		return err
	}
	if err := c.staticCheck(d.Body); err != nil {
		return err
	}
	c.nrules++
	name := fmt.Sprintf("foreach_%s_%d", d.Table, c.nrules)
	// A rule fires once per trigger, so its firings recycle environments
	// rather than allocate one each. An env goes back to the pool emptied
	// by release(0), so the pool pins no tuple between firings.
	envs := sync.Pool{New: func() any { return &env{} }}
	c.prog.Rule(name, trig, func(ctx *core.Ctx, t *tuple.Tuple) {
		e := envs.Get().(*env)
		e.bind(d.Var, t)
		var err error
		for _, s := range d.Body {
			if err = c.exec(ctx, e, s); err != nil {
				break
			}
		}
		e.release(0)
		envs.Put(e)
		if err != nil {
			panic(err)
		}
	})
	return nil
}

// tableUsage accumulates the get shapes that rule bodies issue against one
// table; a table with no entry is never queried by any rule.
type tableUsage struct {
	scanned   bool // some get had an empty equality prefix
	minPrefix int  // shortest non-empty get prefix
}

// emitPlanHints is the compiler's static half of store planning: where
// PlanFromStats reads a finished run's counters, this pass reads the get
// shapes visible in the rule bodies and hints each declared table on the
// program (Program.PlanHint — the lowest-priority selection layer, so
// GammaHint and Options.StorePlan still win):
//   - a table no rule queries becomes columnar, whoever fills it — rule
//     puts, top-level puts or served clients: the program only appends and
//     dedups into it;
//   - a table whose every get carries an equality prefix becomes
//     columnar:k, keyed at the shortest prefix depth k, so every such get
//     walks one key's chain. The put/query balance that picks hash:k for
//     query-dominated tables is a run statistic the compiler cannot see,
//     and hash:k dedups an insert by walking its key's whole chain, so
//     columnar:k, with O(1) full-row dedup, is the safe default;
//   - a table with any prefix-less get gets no hint and stays a B-tree.
//
// Served clients may still prefix-query a columnar table over /query: it
// answers a prefix of at least k values from one key's chain.
func (c *compiler) emitPlanHints(f *File) {
	usage := map[string]*tableUsage{}
	var walkExpr func(e Expr)
	walkExpr = func(e Expr) {
		switch e := e.(type) {
		case *GetExpr:
			u := usage[e.Table]
			if u == nil {
				u = &tableUsage{}
				usage[e.Table] = u
			}
			if n := len(e.Args); n == 0 {
				u.scanned = true
			} else if !u.scanned && (u.minPrefix == 0 || n < u.minPrefix) {
				u.minPrefix = n
			}
			for _, a := range e.Args {
				walkExpr(a)
			}
			if e.Lambda != nil {
				walkExpr(e.Lambda)
			}
		case *NewExpr:
			for _, a := range e.Args {
				walkExpr(a)
			}
		case *Binary:
			walkExpr(e.L)
			walkExpr(e.R)
		case *Unary:
			walkExpr(e.X)
		case *FieldAccess:
			walkExpr(e.X)
		case *CallExpr:
			for _, a := range e.Args {
				walkExpr(a)
			}
		}
	}
	var walkStmts func(ss []Stmt)
	walkStmts = func(ss []Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *IfStmt:
				walkExpr(s.Cond)
				walkStmts(s.Then)
				walkStmts(s.Else)
			case *ValStmt:
				walkExpr(s.Expr)
			case *PutStmt:
				walkExpr(s.Expr)
			case *PrintlnStmt:
				walkExpr(s.Expr)
			case *ForStmt:
				walkExpr(s.Query)
				walkStmts(s.Body)
			case *AccumStmt:
				walkExpr(s.Expr)
			}
		}
	}
	for _, d := range f.Decls {
		if d, ok := d.(*RuleDecl); ok {
			walkStmts(d.Body)
		}
	}
	for name := range c.tables {
		switch u := usage[name]; {
		case u == nil:
			c.prog.PlanHint(name, "columnar")
		case !u.scanned && u.minPrefix >= 1:
			c.prog.PlanHint(name, gamma.ColumnarSpec(u.minPrefix))
		}
	}
}

// env is a lexically scoped variable environment for one rule firing.
type env struct {
	names []string
	vals  []any
}

func (e *env) bind(name string, v any) { e.names = append(e.names, name); e.vals = append(e.vals, v) }

func (e *env) lookup(name string) (any, bool) {
	for i := len(e.names) - 1; i >= 0; i-- {
		if e.names[i] == name {
			return e.vals[i], true
		}
	}
	return nil, false
}

func (e *env) set(name string, v any) bool {
	for i := len(e.names) - 1; i >= 0; i-- {
		if e.names[i] == name {
			e.vals[i] = v
			return true
		}
	}
	return false
}

func (e *env) mark() int { return len(e.names) }

// release drops the bindings made since mark m, clearing their values so
// that no slot past len ever holds a tuple. It stores nil slot by slot: a
// block binds a few names at most, and plain stores cost less than
// clear's bulk write barrier while the GC runs.
func (e *env) release(m int) {
	for i := m; i < len(e.vals); i++ {
		e.vals[i] = nil
	}
	e.names, e.vals = e.names[:m], e.vals[:m]
}

func (c *compiler) execBlock(ctx *core.Ctx, e *env, stmts []Stmt) error {
	m := e.mark()
	defer e.release(m)
	for _, s := range stmts {
		if err := c.exec(ctx, e, s); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) exec(ctx *core.Ctx, e *env, s Stmt) error {
	switch s := s.(type) {
	case *IfStmt:
		v, err := c.eval(ctx, e, s.Cond)
		if err != nil {
			return err
		}
		b, ok := v.(bool)
		if !ok {
			return errf(s.Line, 1, "if condition is not boolean (got %T)", v)
		}
		if b {
			return c.execBlock(ctx, e, s.Then)
		}
		return c.execBlock(ctx, e, s.Else)
	case *ValStmt:
		v, err := c.eval(ctx, e, s.Expr)
		if err != nil {
			return err
		}
		e.bind(s.Name, v)
		return nil
	case *PutStmt:
		v, err := c.eval(ctx, e, s.Expr)
		if err != nil {
			return err
		}
		t, ok := v.(*tuple.Tuple)
		if !ok {
			return errf(s.Line, 1, "put requires a tuple (got %T)", v)
		}
		ctx.Put(t)
		return nil
	case *PrintlnStmt:
		v, err := c.eval(ctx, e, s.Expr)
		if err != nil {
			return err
		}
		ctx.Println(render(v))
		return nil
	case *ForStmt:
		q, s2, err := c.buildQuery(ctx, e, s.Query)
		if err != nil {
			return err
		}
		var loopErr error
		ctx.ForEach(s2, q, func(t *tuple.Tuple) bool {
			m := e.mark()
			e.bind(s.Var, t)
			loopErr = c.execBlock(ctx, e, s.Body)
			e.release(m)
			return loopErr == nil
		})
		return loopErr
	case *AccumStmt:
		cur, ok := e.lookup(s.Name)
		if !ok {
			return errf(s.Line, 1, "unknown variable %s", s.Name)
		}
		v, err := c.eval(ctx, e, s.Expr)
		if err != nil {
			return err
		}
		switch acc := cur.(type) {
		case *reduce.Statistics:
			f, err := toFloat(v)
			if err != nil {
				return errf(s.Line, 1, "stats += : %v", err)
			}
			acc.Add(f)
			return nil
		case int64:
			i, ok := v.(int64)
			if !ok {
				return errf(s.Line, 1, "int accumulator += non-int %T", v)
			}
			e.set(s.Name, acc+i)
			return nil
		case float64:
			f, err := toFloat(v)
			if err != nil {
				return err
			}
			e.set(s.Name, acc+f)
			return nil
		default:
			return errf(s.Line, 1, "%s is not an accumulator (got %T)", s.Name, cur)
		}
	default:
		return fmt.Errorf("jstar: unknown statement %T", s)
	}
}

// buildQuery evaluates a GetExpr's prefix arguments and compiles its lambda.
func (c *compiler) buildQuery(ctx *core.Ctx, e *env, g *GetExpr) (gamma.Query, *tuple.Schema, error) {
	s, err := c.schema(g.Table, g.Line)
	if err != nil {
		return gamma.Query{}, nil, err
	}
	prefix := make([]tuple.Value, len(g.Args))
	for i, a := range g.Args {
		v, err := c.eval(ctx, e, a)
		if err != nil {
			return gamma.Query{}, nil, err
		}
		prefix[i], err = toValue(v, s.Columns[i].Kind)
		if err != nil {
			return gamma.Query{}, nil, errf(g.Line, 1, "get %s arg %d: %v", g.Table, i+1, err)
		}
	}
	q := gamma.Query{Prefix: prefix}
	if g.Lambda != nil {
		lam := g.Lambda
		q.Where = func(t *tuple.Tuple) bool {
			// Inside the lambda, unqualified names resolve to the queried
			// tuple's fields first, then to outer variables.
			le := &lambdaEnv{outer: e, tuple: t}
			v, err := c.eval(ctx, le, lam)
			if err != nil {
				panic(err)
			}
			b, ok := v.(bool)
			if !ok {
				panic(errf(g.Line, 1, "query lambda is not boolean"))
			}
			return b
		}
	}
	return q, s, nil
}

// evalGet runs a non-loop query expression.
func (c *compiler) evalGet(ctx *core.Ctx, e *env, g *GetExpr) (any, error) {
	q, s, err := c.buildQuery(ctx, e, g)
	if err != nil {
		return nil, err
	}
	switch g.Mode {
	case GetUniq:
		t := ctx.GetUniq(s, q)
		if t == nil {
			return nil, nil // null
		}
		return t, nil
	case GetMin:
		col := minColumn(s)
		t := ctx.GetMin(s, q, col)
		if t == nil {
			return nil, nil
		}
		return t, nil
	case GetCount:
		return int64(ctx.Count(s, q)), nil
	default:
		return nil, errf(g.Line, 1, "iterable get %s used outside a for loop", g.Table)
	}
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

// lambdaEnv resolves unqualified names against the queried tuple's fields,
// falling back to the outer environment.
type lambdaEnv struct {
	outer *env
	tuple *tuple.Tuple
}

func (le *lambdaEnv) lookup(name string) (any, bool) {
	if i := le.tuple.Schema().ColumnIndex(name); i >= 0 {
		return fromValue(le.tuple.Field(i)), true
	}
	return le.outer.lookup(name)
}
