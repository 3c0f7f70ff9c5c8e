package lang

import (
	"fmt"

	"github.com/jstar-lang/jstar/internal/causality"
	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// Compile loads a parsed file onto a fresh engine Program. Every name,
// arity and kind is checked here, as the Java compiler checks the code
// JStar generates: a rule body compiles to typed closures (body.go), and
// an ill-typed program is a located error, never a run that fails at its
// first firing.
func Compile(f *File) (*core.Program, error) {
	prog, _, err := CompileSpecs(f)
	return prog, err
}

// CompileSpecs is Compile that also returns each rule's contract, in
// declaration order: the symbolic puts and gets its typing recorded
// (spec.go), on which causality.Checker discharges the §4 obligations.
func CompileSpecs(f *File) (*core.Program, []causality.RuleSpec, error) {
	c := &compiler{prog: core.NewProgram(), tables: map[string]*tuple.Schema{}}
	// Pass 1: tables and orders (rules may reference later tables).
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *TableDecl:
			if err := c.table(d); err != nil {
				return nil, nil, err
			}
		case *OrderDecl:
			if err := c.order(d); err != nil {
				return nil, nil, err
			}
		}
	}
	// Pass 2: rules and puts.
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *PutDecl:
			if err := c.topPut(d); err != nil {
				return nil, nil, err
			}
		case *RuleDecl:
			if err := c.rule(d); err != nil {
				return nil, nil, err
			}
		}
	}
	// Pass 3: static store-plan hints from the rules' query shapes.
	c.emitPlanHints()
	return c.prog, c.specs, nil
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
	specs  []causality.RuleSpec // the contract of each rule compiled so far
}

func (c *compiler) table(d *TableDecl) error {
	if _, dup := c.tables[d.Name]; dup {
		return errf(d.Line, 1, "table %s declared twice", d.Name)
	}
	cols := make([]tuple.Column, len(d.Cols))
	for i, col := range d.Cols {
		cols[i] = tuple.Column{Name: col.Name, Kind: colTypes[col.Type], Key: col.Key}
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

func (c *compiler) topPut(d *PutDecl) (err error) {
	s, err := c.schema(d.Expr.Table, d.Line)
	if err != nil {
		return err
	}
	if len(d.Expr.Args) != s.Arity() {
		return errf(d.Line, 1, "new %s: %d args, table has %d columns",
			s.Name, len(d.Expr.Args), s.Arity())
	}
	// Top-level puts may only use constant expressions, whose only failure
	// is an integer division or modulo by zero.
	defer func() {
		if p := recover(); p != nil {
			e, ok := p.(*Error)
			if !ok {
				panic(p)
			}
			err = errf(d.Line, 1, "top-level put: %v", e)
		}
	}()
	b := &body{c: c}
	vals := make([]tuple.Value, len(d.Expr.Args))
	for i, a := range d.Expr.Args {
		x, err := b.expr(a)
		if err != nil {
			return errf(d.Line, 1, "top-level put: %v", err)
		}
		col := s.Columns[i]
		f := value(x, col.Kind)
		if f == nil {
			return errf(d.Line, 1, "top-level put field %s: cannot use %s as %v", col.Name, x.typ, col.Kind)
		}
		vals[i] = f(frame{})
	}
	c.prog.PutNew(s, vals...)
	return nil
}

func (c *compiler) rule(d *RuleDecl) error {
	trig, err := c.schema(d.Table, d.Line)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("foreach_%s_%d", d.Table, len(c.specs)+1)
	ct := &contract{taken: map[string]bool{d.Var: true}}
	ct.Name, ct.Trigger, ct.TriggerKey = name, d.Table, causality.KeyOfSchema(trig, d.Var)
	b := &body{c: c, contract: ct, vars: []binding{{d.Var, typ{k: kTuple, sch: trig}, trigger, d.Var}}}
	run, err := b.block(d.Body)
	if err != nil {
		return err
	}
	c.specs = append(c.specs, ct.RuleSpec)
	slots := b.slots
	c.prog.Rule(name, trig, func(ctx *core.Ctx, t *tuple.Tuple) {
		fr := frame{ctx: ctx, trig: t}
		if slots > 0 {
			fr.slots = make([]slot, slots)
		}
		run(fr)
	})
	return nil
}

// emitPlanHints is the compiler's static half of store planning: where
// PlanFromStats reads a finished run's counters, this pass reads the get
// shapes the rules' contracts recorded and hints each declared table on the
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
func (c *compiler) emitPlanHints() {
	minPrefix := map[string]int{} // per queried table, its shortest get prefix
	for _, r := range c.specs {
		for _, q := range r.Queries {
			if m, seen := minPrefix[q.Table]; !seen || q.Prefix < m {
				minPrefix[q.Table] = q.Prefix
			}
		}
	}
	for name := range c.tables {
		switch m, queried := minPrefix[name]; {
		case !queried:
			c.prog.PlanHint(name, "columnar")
		case m >= 1:
			c.prog.PlanHint(name, gamma.ColumnarSpec(m))
		}
	}
}
