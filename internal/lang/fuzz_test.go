package lang

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/jstar-lang/jstar/internal/causality"
	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/exec"
)

// fanoutTenant is the one-rule program the service benchmarks host: a
// tenant's source in the shape POST /v1/tenants receives it.
const fanoutTenant = `
table Event(int n) orderby (Event)
table Out(int n, int v) orderby (Out)
order Event < Out

foreach (Event e) {
  put new Out(e.n, e.n * 2)
}

put new Event(1)
`

// runtimeFailure matches the rule failures a program that compiles may
// still meet at run time: an integer division or modulo by zero, and a null
// from get uniq? or get min that is dereferenced. A kind mismatch or an
// unknown name at run time would be a hole in the typing pass.
var runtimeFailure = regexp.MustCompile(`panicked: jstar:\d+:\d+: (integer (division|modulo) by zero|field access \.\w+ on null|put of null)`)

// FuzzCompileSource feeds arbitrary text to the compiler, the path tenant
// source takes when it arrives untrusted over the service. Malformed source
// must come back as an error, never a panic. Source that compiles must
// come with a complete contract: one RuleSpec per foreach, one query spec
// per get in the file, and specs the causality checker discharges against
// the program's declared order without panicking. It is then run for a few
// steps under a deadline, and whatever it does at run time must also
// surface as an error, not a crash. A rule that fails at run time must
// fail with one of runtimeFailure's errors: the engine's own errors
// (MaxSteps, the deadline) are not rule failures and pass. Seeded from
// every example program, the service benchmark's tenant, the ill-typed
// corpus, two programs that fail at run time, a binding that shadows the
// trigger and a get nested in another get's prefix.
//
//	go test -run '^$' -fuzz '^FuzzCompileSource$' -fuzztime 60s ./internal/lang
func FuzzCompileSource(f *testing.F) {
	files, err := filepath.Glob("../../examples/programs/*.jstar")
	if err != nil || len(files) == 0 {
		f.Fatalf("no example programs to seed from (err %v)", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add(fanoutTenant)
	for _, c := range illTyped {
		f.Add(illTypedSource(c.body))
	}
	f.Add(illTypedSource(`put new Out(e.n, 10 / (e.n - 1) + 10 % (e.n - 1))`))
	f.Add(illTypedSource(`val o = get uniq? Out(e.n) println(o.v) put o`))
	f.Add(shadowSrc)
	f.Add(illTypedSource(`val o = get uniq? Out(e.n - 1, get count Event(e.n)) println(o)`))
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			return
		}
		p, specs, err := CompileSpecs(file)
		if err != nil {
			return
		}
		causality.NewChecker(p.PartialOrder()).Check(specs)
		rules, gets := 0, 0
		for _, d := range file.Decls {
			if r, ok := d.(*RuleDecl); ok {
				rules++
				gets += countGets(r.Body)
			}
		}
		queries := 0
		for _, s := range specs {
			queries += len(s.Queries)
		}
		if len(specs) != rules || queries != gets {
			t.Fatalf("%d rules with %d gets, but %d specs with %d queries", rules, gets, len(specs), queries)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		sess, err := p.Start(ctx, core.Options{Strategy: exec.Sequential, MaxSteps: 16, Quiet: true})
		if err != nil {
			return
		}
		err = sess.Quiesce(ctx)
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
		if err != nil && strings.Contains(err.Error(), "panicked: ") && !runtimeFailure.MatchString(err.Error()) {
			t.Fatalf("source compiled but a rule failed at run time with %v", err)
		}
	})
}

// countGets counts the get expressions in a rule body, wherever they are.
func countGets(ss []Stmt) int {
	n := 0
	for _, s := range ss {
		switch s := s.(type) {
		case *IfStmt:
			n += countGetsIn(s.Cond) + countGets(s.Then) + countGets(s.Else)
		case *ValStmt:
			n += countGetsIn(s.Expr)
		case *PutStmt:
			n += countGetsIn(s.Expr)
		case *PrintlnStmt:
			n += countGetsIn(s.Expr)
		case *ForStmt:
			n += countGetsIn(s.Query) + countGets(s.Body)
		case *AccumStmt:
			n += countGetsIn(s.Expr)
		}
	}
	return n
}

func countGetsIn(e Expr) int {
	var n int
	var sub []Expr
	switch e := e.(type) {
	case *GetExpr:
		n, sub = 1+countGetsIn(e.Lambda), e.Args
	case *Binary:
		sub = []Expr{e.L, e.R}
	case *Unary:
		sub = []Expr{e.X}
	case *FieldAccess:
		sub = []Expr{e.X}
	case *NewExpr:
		sub = e.Args
	case *CallExpr:
		sub = e.Args
	}
	for _, x := range sub {
		n += countGetsIn(x)
	}
	return n
}
