package lang

import (
	"github.com/jstar-lang/jstar/internal/exec"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/jstar-lang/jstar/internal/core"
)

// TestExamplePrograms compiles and executes every .jstar file shipped under
// examples/programs, sequentially and in parallel, checking known outputs.
func TestExamplePrograms(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "programs")
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		t.Skipf("skipping golden programs: %s does not exist (source checkout without examples)", dir)
	}
	if err != nil {
		t.Fatalf("examples/programs unreadable: %v", err)
	}
	want := map[string]func(t *testing.T, out []string){
		"ship.jstar": func(t *testing.T, out []string) {
			if len(out) != 4 || !strings.Contains(out[3], "x=460") {
				t.Errorf("ship output = %q", out)
			}
		},
		"fibonacci.jstar": func(t *testing.T, out []string) {
			joined := strings.Join(out, "")
			if !strings.Contains(joined, "fib(30) = 832040") {
				t.Errorf("fibonacci output missing fib(30):\n%s", joined)
			}
		},
		"pvwatts_mini.jstar": func(t *testing.T, out []string) {
			joined := strings.Join(out, "")
			if !strings.Contains(joined, "1: 150") || !strings.Contains(joined, "2: 100") ||
				!strings.Contains(joined, "3: 999") {
				t.Errorf("pvwatts_mini output:\n%s", joined)
			}
		},
		"shortestpath.jstar": func(t *testing.T, out []string) {
			joined := strings.Join(out, "")
			// 0->2 (2), 2->1 (3) => 5; 1->3 (1) => 6.
			for _, line := range []string{
				"shortest path to 0 is 0", "shortest path to 2 is 2",
				"shortest path to 1 is 5", "shortest path to 3 is 6",
			} {
				if !strings.Contains(joined, line) {
					t.Errorf("missing %q in:\n%s", line, joined)
				}
			}
		},
	}
	covered := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".jstar") {
			continue
		}
		check, ok := want[e.Name()]
		if !ok {
			t.Errorf("no golden check registered for %s", e.Name())
			continue
		}
		covered++
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []core.Options{
			{Strategy: exec.Sequential, MaxSteps: 100000},
			{Threads: 4, MaxSteps: 100000},
		} {
			prog, err := CompileSource(string(src))
			if err != nil {
				t.Fatalf("%s: compile: %v", e.Name(), err)
			}
			run, err := prog.Execute(opts)
			if err != nil {
				t.Fatalf("%s (strategy=%v): %v", e.Name(), opts.Strategy, err)
			}
			out := run.Output()
			// Parallel batches may reorder lines; sort-insensitive checks
			// only (the checks above use Contains).
			check(t, out)
		}
	}
	if covered != len(want) {
		t.Errorf("covered %d of %d registered programs", covered, len(want))
	}
}
