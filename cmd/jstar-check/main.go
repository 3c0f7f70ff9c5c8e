// Command jstar-check discharges the §4 causality proof obligations of a
// JStar source file: for every put, the new tuple must be in the present or
// future of the trigger; for every negative or aggregate query, the queried
// timestamp must be strictly in the past. The prover is a Fourier–Motzkin
// decision procedure standing in for the paper's SMT solvers.
//
//	jstar-check program.jstar
//
// Exit status 1 when any obligation cannot be proved (the compiler's
// "Stratification error" / warning behaviour), or when the program fails
// the engine's own validation — e.g. two tables whose orderby lists meet at
// a Delta-tree level with entries of different kinds.
package main

import (
	"flag"
	"fmt"
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
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f, err := lang.Parse(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	prog, err := lang.Compile(f)
	if err == nil {
		err = prog.Validate(core.Options{})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	specs, err := lang.ExtractSpecs(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	obs := causality.NewChecker(prog.PartialOrder()).Check(specs)
	fmt.Print(causality.Report(obs))
	if !causality.AllProved(obs) {
		os.Exit(1)
	}
}
