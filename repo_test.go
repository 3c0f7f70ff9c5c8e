package jstar_test

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameOnlyCommandsThatExist: every `./cmd/<name>` and every
// `go run ./<path>` in the README, the CI workflow and the verify skill
// resolves to a directory in the checkout, and each of the three points at
// the one benchmark program. Docs outlive the code they describe unless
// something checks them: a deleted command fails here, by file and name.
func TestDocsNameOnlyCommandsThatExist(t *testing.T) {
	paths := regexp.MustCompile(`\./cmd/[\w-]+|go run (\./[\w./-]+)`)
	const benchmark = "benchmark/run.sh"
	if _, err := os.Stat(benchmark); err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(text), benchmark) {
			t.Errorf("%s: does not mention %s, the repo's one benchmark program", doc, benchmark)
		}
		for _, m := range paths.FindAllStringSubmatch(string(text), -1) {
			dir := m[0]
			if m[1] != "" {
				dir = m[1]
			}
			if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
				t.Errorf("%s: names %s, which is not a directory in this checkout", doc, dir)
			}
		}
	}
}

// TestBenchmarkModule vets and tests the nested benchmark module. go.work
// lets one go command see both modules, but a `./...` pattern stops at a
// nested go.mod, so the root `go test ./...` reaches benchmark/ — which
// compiles against this module's internals — only through this test.
func TestBenchmarkModule(t *testing.T) {
	for _, args := range [][]string{{"vet", "./benchmark/..."}, {"test", "./benchmark/..."}} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
