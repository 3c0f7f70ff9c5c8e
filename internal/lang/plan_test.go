package lang

import (
	"github.com/jstar-lang/jstar/internal/exec"
	"testing"

	"github.com/jstar-lang/jstar/internal/core"
)

// TestCompilerEmitsStaticPlanHints: the compiler must derive store-plan
// hints from the statically visible query shapes — indexed tables, all-int
// or not, become columnar keyed at the shortest get-prefix depth, every
// table no rule queries goes columnar (whether a rule puts into it, it only
// triggers rules, or nothing uses it at all), and tables with any
// prefix-less get are left alone.
func TestCompilerEmitsStaticPlanHints(t *testing.T) {
	prog, err := CompileSource(`
table Edge(int from, int to, int value) orderby (Edge)
table Name(int id, String label) orderby (Name)
table Audit(int id, int code) orderby (Audit)
table Mixed(int a, int b) orderby (Mixed)
table Tick(int n) orderby (Tick)
table Unused(int id, String label) orderby (Unused)
table Pair(int a, String b, int c) orderby (Pair)
order Tick < Edge < Name < Audit < Mixed < Pair

put new Edge(0, 1, 2)
put new Name(0, "zero")
put new Mixed(1, 2)

foreach (Edge e) {
  for (o : get Edge(e.to)) {
    put new Audit(o.to, 1)
  }
  val n = get uniq? Name(e.from)
  for (p : get Pair(e.from, "x")) {
    put new Audit(p.c, 4)
  }
  for (m : get Mixed()) {
    put new Audit(m.a, 2)
  }
}

foreach (Tick k) {
  put new Audit(k.n, 3)
}
`)
	if err != nil {
		t.Fatal(err)
	}
	hints := prog.PlanHints()
	want := map[string]string{
		"Edge":   "columnar",   // every get has a 1-column prefix
		"Name":   "columnar",   // the same with a String column
		"Pair":   "columnar:2", // every get has a 2-column prefix
		"Audit":  "columnar",   // put into, never queried
		"Tick":   "columnar",   // triggers a rule, never put by one, never queried
		"Unused": "columnar",   // declared, never used
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
	if prog2.PlanHints()["T"] != "columnar" {
		t.Fatalf("T hint = %q", prog2.PlanHints()["T"])
	}
	run2, err := prog2.Execute(core.Options{
		Strategy: exec.Sequential, Quiet: true, MaxSteps: 1000,
		StorePlan: map[string]string{"T": "hash:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := run2.Stats().StoreKinds["T"]; got != "hash:1" {
		t.Errorf("Options.StorePlan lost to the static hint: %q", got)
	}
}
