// Command jstar-check discharges the §4 causality proof obligations of a
// JStar source file: for every put, the new tuple must be in the present or
// future of the trigger; for every negative or aggregate query, the queried
// timestamp must be strictly in the past. The prover is a Fourier–Motzkin
// decision procedure standing in for the paper's SMT solvers.
//
//	jstar-check program.jstar
//
// Exit status 1 when any obligation cannot be proved (the compiler's
// "Stratification error" / warning behaviour), when the program does not
// compile — a kind mismatch or an unknown name in a rule body included —
// or when it fails the engine's own validation, e.g. two tables whose
// orderby lists meet at a Delta-tree level with entries of different
// kinds.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/jstar-lang/jstar/internal/causality"
	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/lang"
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: jstar-check program.jstar")
		os.Exit(2)
	}
	os.Exit(check(flag.Arg(0), os.Stdout, os.Stderr))
}

// check runs every check on the program at path, writes the obligations
// report to stdout and any error to stderr, and returns the exit status.
func check(path string, stdout, stderr io.Writer) int {
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	f, err := lang.Parse(string(src))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	prog, specs, err := lang.CompileSpecs(f)
	if err == nil {
		err = prog.Validate(core.Options{})
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	obs := causality.NewChecker(prog.PartialOrder()).Check(specs)
	fmt.Fprint(stdout, causality.Report(obs))
	if !causality.AllProved(obs) {
		return 1
	}
	return 0
}
