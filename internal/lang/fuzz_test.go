package lang

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

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
// must come back as an error, never a panic; source that compiles is run
// for a few steps under a deadline, and whatever it does at run time must
// also surface as an error, not a crash. A rule that fails at run time must
// fail with one of runtimeFailure's errors: the engine's own errors
// (MaxSteps, the deadline) are not rule failures and pass. Seeded from
// every example program, the service benchmark's tenant, the ill-typed
// corpus and two programs that fail at run time.
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
	f.Fuzz(func(t *testing.T, src string) {
		p, err := CompileSource(src)
		if err != nil {
			return
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
