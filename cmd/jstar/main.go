// Command jstar compiles and runs a JStar source file on the engine.
//
//	jstar [flags] program.jstar
//
// Flags mirror the paper's compiler options: -sequential generates a
// sequential run, -threads sets the fork/join pool size, -noDelta/-noGamma
// apply the §5.1 optimisations, and -check discharges the §4 causality
// proof obligations before running. -save-plan writes the run's suggested
// per-table store plan (from the observed usage statistics) as JSON, and
// -store-plan replays a saved plan — the profile-guided tuning loop: run
// once, save, run again tuned. The program runs through the public
// Session lifecycle (Start → Quiesce → Close); -timeout bounds it with a
// context deadline, so even a non-terminating program exits cleanly
// without relying on -maxSteps.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/jstar-lang/jstar"
	"github.com/jstar-lang/jstar/internal/causality"
	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/lang"
	"github.com/jstar-lang/jstar/internal/stats"
)

func main() {
	sequential := flag.Bool("sequential", false, "generate sequential code (the paper's spelling of -strategy sequential)")
	strategy := flag.String("strategy", "auto",
		"execution strategy: "+strings.Join(exec.StrategyNames(), "|"))
	threads := flag.Int("threads", 0, "fork/join pool size (0 = GOMAXPROCS)")
	noDelta := flag.String("noDelta", "", "comma-separated tables to bypass the Delta set")
	noGamma := flag.String("noGamma", "", "comma-separated trigger-only tables")
	check := flag.Bool("check", true, "verify causality obligations before running")
	runtimeCheck := flag.Bool("runtimeCheck", false, "enable the runtime causality checker")
	maxSteps := flag.Int64("maxSteps", 10_000_000, "abort after this many steps (0 = no limit)")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	storePlan := flag.String("store-plan", "",
		"JSON store-plan file (table -> kind) to apply; kinds: "+strings.Join(jstar.StoreKinds(), "|"))
	savePlan := flag.String("save-plan", "",
		"write the run's suggested store plan as JSON to this file (replay it with -store-plan)")
	showStats := flag.Bool("stats", false, "print per-table usage statistics")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: jstar [flags] program.jstar")
		os.Exit(2)
	}
	// Validate before doing any work: an unknown -strategy must abort with
	// the legal names, never fall back to Auto silently.
	strat, err := jstar.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}
	if *sequential {
		if strat != jstar.StrategyAuto && strat != jstar.StrategySequential {
			fatal(fmt.Errorf("jstar: -sequential contradicts -strategy %v (it means -strategy sequential; drop one of the two)", strat))
		}
		strat = jstar.StrategySequential
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	f, err := lang.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	var prog *jstar.Program
	prog, err = lang.Compile(f)
	if err != nil {
		fatal(err)
	}
	if *check {
		specs, err := lang.ExtractSpecs(f)
		if err != nil {
			fatal(err)
		}
		obs := causality.NewChecker(prog.PartialOrder()).Check(specs)
		if !causality.AllProved(obs) {
			fmt.Fprint(os.Stderr, causality.Report(obs))
			fmt.Fprintln(os.Stderr, "jstar: warning: unproved causality obligations (running anyway; use -runtimeCheck to trap violations)")
		}
	}
	opts := jstar.Options{
		Strategy:       strat,
		Threads:        *threads,
		CheckCausality: *runtimeCheck,
		MaxSteps:       *maxSteps,
		// -stats buys the per-phase step breakdown too; the clock reads it
		// costs only matter on benchmark runs, which don't pass -stats.
		PhaseStats: *showStats,
	}
	if *noDelta != "" {
		opts.NoDelta = strings.Split(*noDelta, ",")
	}
	if *noGamma != "" {
		opts.NoGamma = strings.Split(*noGamma, ",")
	}
	if *storePlan != "" {
		// A bad plan (unknown table or kind) is rejected by Program.Start's
		// validation with the legal kinds listed, before anything runs.
		data, err := os.ReadFile(*storePlan)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(data, &opts.StorePlan); err != nil {
			fatal(fmt.Errorf("jstar: -store-plan %s: %v", *storePlan, err))
		}
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	sess, err := prog.Start(ctx, opts)
	if err != nil {
		fatal(err)
	}
	qErr := sess.Quiesce(ctx)
	if err := sess.Close(); qErr == nil {
		qErr = err
	}
	run := sess.Run()
	for _, line := range run.Output() {
		fmt.Print(line)
	}
	if qErr != nil {
		fatal(qErr)
	}
	if *showStats {
		fmt.Fprintf(os.Stderr, "strategy: %s\n", run.StrategyName())
		fmt.Fprint(os.Stderr, stats.TableReport(run))
	}
	if *savePlan != "" {
		plan := run.Stats().SuggestStorePlan()
		data, err := json.MarshalIndent(plan, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*savePlan, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "store plan (%d tables) written to %s\n", len(plan), *savePlan)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
