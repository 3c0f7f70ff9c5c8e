package lang

import (
	"context"
	"os"
	"path/filepath"
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

// FuzzCompileSource feeds arbitrary text to the compiler, the path tenant
// source takes when it arrives untrusted over the service. Malformed source
// must come back as an error, never a panic; source that compiles is run
// for a few steps under a deadline, and whatever it does at run time must
// also surface as an error, not a crash. Seeded from every example program
// and the service benchmark's tenant.
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
		_ = sess.Quiesce(ctx)
		_ = sess.Close()
	})
}
