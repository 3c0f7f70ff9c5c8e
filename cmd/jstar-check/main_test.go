package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckRefusesIllTypedProgram: a rule body that multiplies a string
// exits 1 with the compile error and its line, before any obligation is
// reported, although every obligation of the program holds.
func TestCheckRefusesIllTypedProgram(t *testing.T) {
	src := `table Event(int n) orderby (Event)
table Out(int n, int v) orderby (Out)
order Event < Out
foreach (Event e) {
  put new Out(e.n, "x" * 2)
}
`
	path := filepath.Join(t.TempDir(), "bad.jstar")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := check(path, &stdout, &stderr); code != 1 || stdout.Len() != 0 ||
		!strings.Contains(stderr.String(), "jstar:5:1: operator * on String and int") {
		t.Errorf("exit %d, stdout %q, stderr %q; want 1, nothing, and line 5's error", code, stdout.String(), stderr.String())
	}
}

// TestCheckShipProved: the §3 Ship example's obligations are all proved.
func TestCheckShipProved(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := check("../../examples/programs/ship.jstar", &stdout, &stderr); code != 0 || stderr.Len() != 0 ||
		!strings.Contains(stdout.String(), "proved") {
		t.Errorf("exit %d, stdout %q, stderr %q; want 0 and a report", code, stdout.String(), stderr.String())
	}
}

// TestCheckExamplesGolden: check's report and exit status on every example
// program match testdata/<name>.golden, the report followed by an
// "exit status N" line. To regenerate one after a deliberate change:
//
//	go run ./cmd/jstar-check examples/programs/ship.jstar > cmd/jstar-check/testdata/ship.golden; echo "exit status $?" >> cmd/jstar-check/testdata/ship.golden
func TestCheckExamplesGolden(t *testing.T) {
	files, err := filepath.Glob("../../examples/programs/*.jstar")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs (err %v)", err)
	}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".jstar")
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			code := check(file, &stdout, &stderr)
			got := fmt.Sprintf("%sexit status %d\n", stdout.String(), code)
			if got != string(want) {
				t.Errorf("check %s:\n%s\nwant:\n%s", file, got, want)
			}
		})
	}
}

// TestCheckShadowedBindingRefused: the loop variable x shadows the trigger
// x, so the put's key is the U row's t, not the trigger's, and the put
// obligation cannot be proved: exit 1.
func TestCheckShadowedBindingRefused(t *testing.T) {
	src := `table T(int t) orderby (Int, seq t)
table U(int t) orderby (U)
order U < Int
put new T(5)
put new U(1)
foreach (T x) { for (x : get U()) { put new T(x.t) } }
`
	path := filepath.Join(t.TempDir(), "shadow.jstar")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := check(path, &stdout, &stderr); code != 1 || stderr.Len() != 0 ||
		!strings.Contains(stdout.String(), "cannot prove x.t ≤ x#2.t") {
		t.Errorf("exit %d, stdout %q, stderr %q; want 1 and the put's x#2.t warning", code, stdout.String(), stderr.String())
	}
}
