package main

import (
	"bytes"
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
