package lang

import (
	"strconv"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// Parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []Token
	pos  int
}

// Parse lexes and parses a JStar source file.
func Parse(src string) (*File, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	f := &File{}
	for !p.at(TokEOF, "") {
		d, err := p.decl()
		if err != nil {
			return nil, err
		}
		f.Decls = append(f.Decls, d)
	}
	return f, nil
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind TokKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *parser) atIdent(text string) bool { return p.at(TokIdent, text) }

func (p *parser) accept(kind TokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind TokKind, text string) (Token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	t := p.cur()
	want := text
	if want == "" {
		switch kind {
		case TokIdent:
			want = "identifier"
		case TokInt:
			want = "integer"
		default:
			want = "token"
		}
	}
	return t, errf(t.Line, t.Col, "expected %s, found %s", want, t)
}

func (p *parser) semi() { p.accept(TokPunct, ";") }

func (p *parser) decl() (Decl, error) {
	t := p.cur()
	switch {
	case p.atIdent("table"):
		return p.tableDecl()
	case p.atIdent("order"):
		return p.orderDecl()
	case p.atIdent("put"):
		return p.putDecl()
	case p.atIdent("foreach"):
		return p.ruleDecl()
	default:
		return nil, errf(t.Line, t.Col, "expected table, order, put or foreach, found %s", t)
	}
}

// colTypes maps the column types a table may declare to their kinds.
var colTypes = map[string]tuple.Kind{"int": tuple.KindInt, "double": tuple.KindFloat, "String": tuple.KindString, "boolean": tuple.KindBool}

func (p *parser) tableDecl() (Decl, error) {
	kw := p.next() // table
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	d := &TableDecl{Name: name.Text, Line: kw.Line}
	sawArrow := false
	for {
		ty, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, ok := colTypes[ty.Text]; !ok {
			return nil, errf(ty.Line, ty.Col, "unknown column type %q (int, double, String, boolean)", ty.Text)
		}
		cn, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		d.Cols = append(d.Cols, ColDecl{Type: ty.Text, Name: cn.Text})
		switch {
		case p.accept(TokPunct, ","):
			continue
		case p.accept(TokPunct, "->"):
			if sawArrow {
				t := p.cur()
				return nil, errf(t.Line, t.Col, "duplicate -> in table %s", d.Name)
			}
			sawArrow = true
			// Everything before the arrow is a key column.
			for i := range d.Cols {
				d.Cols[i].Key = true
			}
			continue
		case p.accept(TokPunct, ")"):
		default:
			t := p.cur()
			return nil, errf(t.Line, t.Col, "expected ',', '->' or ')' in table %s, found %s", d.Name, t)
		}
		break
	}
	if p.atIdent("orderby") {
		p.next()
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		for {
			e, err := p.orderByEntry()
			if err != nil {
				return nil, err
			}
			d.OrderBy = append(d.OrderBy, e)
			if p.accept(TokPunct, ",") {
				continue
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			break
		}
	}
	p.semi()
	return d, nil
}

func (p *parser) orderByEntry() (OrderByEntry, error) {
	if p.atIdent("seq") || p.atIdent("par") {
		kw := p.next()
		f, err := p.expect(TokIdent, "")
		if err != nil {
			return OrderByEntry{}, err
		}
		return OrderByEntry{Kind: kw.Text, Name: f.Text}, nil
	}
	id, err := p.expect(TokIdent, "")
	if err != nil {
		return OrderByEntry{}, err
	}
	return OrderByEntry{Kind: "lit", Name: id.Text}, nil
}

func (p *parser) orderDecl() (Decl, error) {
	kw := p.next() // order
	d := &OrderDecl{Line: kw.Line}
	id, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	d.Names = append(d.Names, id.Text)
	for p.accept(TokPunct, "<") {
		id, err = p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		d.Names = append(d.Names, id.Text)
	}
	if len(d.Names) < 2 {
		return nil, errf(kw.Line, kw.Col, "order declaration needs at least two names")
	}
	p.semi()
	return d, nil
}

func (p *parser) putDecl() (Decl, error) {
	kw := p.next() // put
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	ne, ok := e.(*NewExpr)
	if !ok {
		return nil, errf(kw.Line, kw.Col, "top-level put requires a `new Table(...)` expression")
	}
	p.semi()
	return &PutDecl{Expr: ne, Line: kw.Line}, nil
}

func (p *parser) ruleDecl() (Decl, error) {
	kw := p.next() // foreach
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	table, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	v, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &RuleDecl{Table: table.Text, Var: v.Text, Body: body, Line: kw.Line}, nil
}

func (p *parser) block() ([]Stmt, error) {
	if _, err := p.expect(TokPunct, "{"); err != nil {
		return nil, err
	}
	var out []Stmt
	for !p.accept(TokPunct, "}") {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (p *parser) stmt() (Stmt, error) {
	t := p.cur()
	switch {
	case p.atIdent("if"):
		p.next()
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		then, err := p.block()
		if err != nil {
			return nil, err
		}
		var els []Stmt
		if p.atIdent("else") {
			p.next()
			if p.atIdent("if") {
				s, err := p.stmt()
				if err != nil {
					return nil, err
				}
				els = []Stmt{s}
			} else {
				els, err = p.block()
				if err != nil {
					return nil, err
				}
			}
		}
		return &IfStmt{Cond: cond, Then: then, Else: els, Line: t.Line}, nil
	case p.atIdent("val"):
		p.next()
		name, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, "="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		p.semi()
		return &ValStmt{Name: name.Text, Expr: e, Line: t.Line}, nil
	case p.atIdent("put"):
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		p.semi()
		return &PutStmt{Expr: e, Line: t.Line}, nil
	case p.atIdent("println"):
		p.next()
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		p.semi()
		return &PrintlnStmt{Expr: e, Line: t.Line}, nil
	case p.atIdent("for"):
		p.next()
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		v, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ":"); err != nil {
			return nil, err
		}
		q, err := p.expr()
		if err != nil {
			return nil, err
		}
		ge, ok := q.(*GetExpr)
		if !ok {
			return nil, errf(t.Line, t.Col, "for loop source must be a get query")
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &ForStmt{Var: v.Text, Query: ge, Body: body, Line: t.Line}, nil
	case t.Kind == TokIdent && p.toks[p.pos+1].Kind == TokPunct && p.toks[p.pos+1].Text == "+=":
		name := p.next()
		p.next() // +=
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		p.semi()
		return &AccumStmt{Name: name.Text, Expr: e, Line: t.Line}, nil
	default:
		return nil, errf(t.Line, t.Col, "expected statement, found %s", t)
	}
}

// Expression parsing with precedence climbing.

var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3,
	"<": 4, "<=": 4, ">": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

func (p *parser) expr() (Expr, error) { return p.binExpr(1) }

func (p *parser) binExpr(minPrec int) (Expr, error) {
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return lhs, nil
		}
		prec, ok := binPrec[t.Text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.binExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Op: t.Text, L: lhs, R: rhs, Line: t.Line}
	}
}

func (p *parser) unary() (Expr, error) {
	t := p.cur()
	if p.at(TokPunct, "-") || p.at(TokPunct, "!") {
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: t.Text, X: x, Line: t.Line}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (Expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for p.at(TokPunct, ".") {
		dot := p.next()
		f, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		e = &FieldAccess{X: e, Field: f.Text, Line: dot.Line}
	}
	return e, nil
}

var builtins = map[string]bool{"min": true, "max": true, "abs": true}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokInt:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errf(t.Line, t.Col, "bad integer %s", t.Text)
		}
		return &IntLit{V: v}, nil
	case t.Kind == TokFloat:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, errf(t.Line, t.Col, "bad float %s", t.Text)
		}
		return &FloatLit{V: v}, nil
	case t.Kind == TokString:
		p.next()
		return &StrLit{V: t.Text}, nil
	case p.atIdent("true"):
		p.next()
		return &BoolLit{V: true}, nil
	case p.atIdent("false"):
		p.next()
		return &BoolLit{V: false}, nil
	case p.atIdent("null"):
		p.next()
		return &NullLit{}, nil
	case p.atIdent("new"):
		p.next()
		name, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		args, err := p.argList()
		if err != nil {
			return nil, err
		}
		return &NewExpr{Table: name.Text, Args: args, Line: t.Line}, nil
	case p.atIdent("get"):
		return p.getExpr()
	case p.at(TokPunct, "("):
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent:
		p.next()
		if builtins[t.Text] && p.at(TokPunct, "(") {
			args, err := p.argList()
			if err != nil {
				return nil, err
			}
			return &CallExpr{Fn: t.Text, Args: args, Line: t.Line}, nil
		}
		return &VarRef{Name: t.Text, Line: t.Line}, nil
	default:
		return nil, errf(t.Line, t.Col, "expected expression, found %s", t)
	}
}

func (p *parser) getExpr() (Expr, error) {
	kw := p.next() // get
	mode := GetAll
	switch {
	case p.atIdent("uniq"):
		p.next()
		p.accept(TokPunct, "?")
		mode = GetUniq
	case p.atIdent("min"):
		p.next()
		mode = GetMin
	case p.atIdent("count"):
		p.next()
		mode = GetCount
	}
	table, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	ge := &GetExpr{Mode: mode, Table: table.Text, Line: kw.Line}
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	if p.accept(TokPunct, ")") {
		return ge, nil
	}
	for {
		if p.at(TokPunct, "[") {
			p.next()
			lam, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, "]"); err != nil {
				return nil, err
			}
			ge.Lambda = lam
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			return ge, nil
		}
		a, err := p.expr()
		if err != nil {
			return nil, err
		}
		ge.Args = append(ge.Args, a)
		if p.accept(TokPunct, ",") {
			continue
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return ge, nil
	}
}

func (p *parser) argList() ([]Expr, error) {
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	var args []Expr
	if p.accept(TokPunct, ")") {
		return args, nil
	}
	for {
		a, err := p.expr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.accept(TokPunct, ",") {
			continue
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return args, nil
	}
}
