package lang

import (
	"github.com/jstar-lang/jstar/internal/exec"
	"testing"

	"github.com/jstar-lang/jstar/internal/core"
)

// TestCompilerEmitsStaticPlanHints: the compiler must derive store-plan
// hints from the statically visible query shapes — indexed all-int tables
// become open-addressing stores at the shortest get-prefix depth, tables
// with a non-int column get the generic hash index, write-only tables go
// columnar, and tables with any prefix-less get are left alone.
func TestCompilerEmitsStaticPlanHints(t *testing.T) {
	prog, err := CompileSource(`
table Edge(int from, int to, int value) orderby (Edge)
table Name(int id, String label) orderby (Name)
table Audit(int id, int code) orderby (Audit)
table Mixed(int a, int b) orderby (Mixed)
order Edge < Name < Audit < Mixed

put new Edge(0, 1, 2)
put new Name(0, "zero")
put new Mixed(1, 2)

foreach (Edge e) {
  for (o : get Edge(e.to)) {
    put new Audit(o.to, 1)
  }
  val n = get uniq? Name(e.from)
  for (m : get Mixed()) {
    put new Audit(m.a, 2)
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	hints := prog.PlanHints()
	want := map[string]string{
		"Edge":  "inthash:1", // all-int, every get has a 1-column prefix
		"Name":  "hash:1",    // indexed but has a String column
		"Audit": "columnar",  // put into, never queried
	}
	for table, kind := range want {
		if hints[table] != kind {
			t.Errorf("hint[%s] = %q, want %q (all hints: %v)", table, hints[table], kind, hints)
		}
	}
	if kind, ok := hints["Mixed"]; ok {
		t.Errorf("hint[Mixed] = %q, want no hint (scanned with an empty prefix)", kind)
	}
	// The hints are the lowest-priority selection layer but they are real:
	// a run built with no other configuration must use them.
	run, err := prog.Execute(core.Options{Strategy: exec.Sequential, Quiet: true, MaxSteps: 10000})
	if err != nil {
		t.Fatal(err)
	}
	kinds := run.Stats().StoreKinds
	for table, kind := range want {
		if kinds[table] != kind {
			t.Errorf("run chose %q for %s, want the static hint %q", kinds[table], table, kind)
		}
	}
	// ... and an explicit per-run plan still wins over them.
	prog2, err := CompileSource(`
table T(int a, int b) orderby (T)
put new T(1, 2)
foreach (T t) {
  val o = get uniq? T(t.b)
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if prog2.PlanHints()["T"] != "inthash:1" {
		t.Fatalf("T hint = %q", prog2.PlanHints()["T"])
	}
	run2, err := prog2.Execute(core.Options{
		Strategy: exec.Sequential, Quiet: true, MaxSteps: 1000,
		StorePlan: map[string]string{"T": "columnar"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := run2.Stats().StoreKinds["T"]; got != "columnar" {
		t.Errorf("Options.StorePlan lost to the static hint: %q", got)
	}
}
