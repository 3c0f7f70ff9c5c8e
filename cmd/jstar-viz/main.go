// Command jstar-viz renders a JStar program's dependency graph as Graphviz
// DOT: tables as blue rectangles, rules as red circles (the Fig 7 style).
// With -run, the program is executed and the rule->table put counts its
// run observed annotate the edges (the §1.5 "annotated dependency graphs of
// the program execution"). The execution goes through the public jstar
// surface (Execute is a Session wrapper), so the binary exercises the same
// lifecycle as every embedding application.
//
//	jstar-viz -run program.jstar | dot -Tpng > graph.png
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/jstar-lang/jstar"
	"github.com/jstar-lang/jstar/internal/lang"
	"github.com/jstar-lang/jstar/internal/stats"
)

func main() {
	doRun := flag.Bool("run", false, "execute the program and annotate edges with observed dataflow")
	maxSteps := flag.Int64("maxSteps", 1_000_000, "step limit for -run")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: jstar-viz [-run] program.jstar")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var prog *jstar.Program
	prog, err = lang.CompileSource(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var run *jstar.Run
	if *doRun {
		run, err = prog.Execute(jstar.Options{
			Strategy: jstar.StrategySequential,
			Quiet:    true,
			MaxSteps: *maxSteps,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Print(stats.ProgramDOT(prog, run))
}
