// Command jstar-bench regenerates every table and figure of the paper's
// evaluation (§6). Each experiment prints the paper's reference numbers
// next to the measured ones so the *shape* (who wins, by what factor,
// where scaling saturates) can be compared directly; absolute times differ
// because the workloads are scaled and the host differs from the paper's
// Xeons.
//
//	jstar-bench -fig 6          # sequential JStar vs hand-coded (Fig 6)
//	jstar-bench -fig 6.2        # -noDelta effect (§6.2 text)
//	jstar-bench -fig 6.3        # PvWatts phase breakdown + Amdahl bound
//	jstar-bench -fig 8          # PvWatts thread sweep x Gamma structures
//	jstar-bench -table 1        # Disruptor tuning sweep (Table 1)
//	jstar-bench -fig 10         # Disruptor sorted vs unsorted
//	jstar-bench -fig 11|12|13   # MatMult / Dijkstra / Median sweeps
//	jstar-bench -all            # everything
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/jstar-lang/jstar/internal/apps/drift"
	"github.com/jstar-lang/jstar/internal/apps/matmult"
	"github.com/jstar-lang/jstar/internal/apps/median"
	"github.com/jstar-lang/jstar/internal/apps/pvwatts"
	"github.com/jstar-lang/jstar/internal/apps/shortestpath"
	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/disruptor"
	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/fastcsv"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/stats"
	"github.com/jstar-lang/jstar/internal/tuple"
	"github.com/jstar-lang/jstar/internal/wal"
)

type config struct {
	pvYears     int
	matN        int
	spVertices  int
	spExtra     int
	medianN     int
	threadSteps []int
	procsLadder []int // -procs GOMAXPROCS ladder, stamped into every artifact
	repeats     int
	strategy    exec.Strategy // engine for the parallel JStar sweeps
}

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 6, 6.2, 6.3, 8, 10, 11, 12, 13, strategies")
	table := flag.String("table", "", "table to regenerate: 1")
	all := flag.Bool("all", false, "run every experiment")
	years := flag.Int("pv-years", 10, "PvWatts synthetic years (paper: ~1000)")
	matN := flag.Int("mat-n", 192, "matrix dimension (paper: 1000)")
	spV := flag.Int("sp-vertices", 20000, "Dijkstra vertices (paper: 1,000,000)")
	medN := flag.Int("median-n", 1000000, "median array size (paper: 100,000,000)")
	repeats := flag.Int("repeats", 3, "measurement repetitions (min taken)")
	strategyFlag := flag.String("strategy", "auto",
		"execution strategy for parallel sweeps: "+strings.Join(exec.StrategyNames(), "|"))
	maxThreads := flag.Int("max-threads", 2*runtime.NumCPU(), "largest pool size in sweeps")
	smoke := flag.Bool("smoke", false, "quick CI smoke run; with -json it writes the perf-trajectory artifact")
	speedup := flag.Bool("speedup", false,
		"run the multi-core speedup sweep (apps + dispatch/step-boundary microbenches across a GOMAXPROCS sweep); with -json the per-point rows join the artifact")
	procsFlag := flag.String("procs", "1,2,4,8",
		"comma-separated GOMAXPROCS values for the -speedup sweep")
	minDispatchSpeedup := flag.Float64("min-dispatch-speedup", 0,
		"with -speedup: exit 1 if the parallel dispatch microbench at 4 procs (or the largest swept) is below this multiple of the sequential baseline (0 disables; CI's scaling gate)")
	jsonPath := flag.String("json", "", "write smoke results as JSON (strategy, GOMAXPROCS, batch-size histogram) to this file")
	savePlan := flag.String("save-plan", "",
		"run the store-plan tuning pass (pvwatts, matmult, shortestpath, median) and write the suggested per-app plans as JSON")
	storePlan := flag.String("store-plan", "",
		"apply a -save-plan JSON file to the tuning pass (the replay half of the two-run tuning loop)")
	adaptive := flag.Bool("adaptive", false,
		"run the adaptive-session drift comparison (frozen plan vs -ReplanEvery live re-planning) and gate on store-plan convergence; with -json the report joins the artifact")
	minAdaptiveSpeedup := flag.Float64("min-adaptive-speedup", 0,
		"with -adaptive: exit 1 if the adaptive session's mean phase-2 window latency is not this many times better than the frozen run's (0 disables; timing gate for dedicated hosts)")
	phases := flag.Bool("phases", false,
		"print the per-phase step breakdown (fire/insert/merge/delta + serial-boundary fraction) for the four apps")
	serveLoad := flag.Bool("serve-load", false,
		"drive a jstar-serve instance with concurrent clients over real sockets; reports ingest and quiesce-visibility latency histograms")
	serveAddr := flag.String("serve-addr", "",
		"base URL of a running jstar-serve for -serve-load (empty: start one in-process on a loopback socket)")
	serveClients := flag.Int("serve-clients", 4, "concurrent -serve-load clients")
	serveBatches := flag.Int("serve-batches", 25, "batches per -serve-load client")
	serveBatchRows := flag.Int("serve-batch-rows", 64, "tuples per -serve-load batch")
	maxBoundaryFrac := flag.Float64("max-boundary-frac", 0,
		"with -smoke: exit 1 if any app run's serial-boundary fraction exceeds this (0 disables; CI's regression gate)")
	walSmoke := flag.Bool("wal", false,
		"run the streaming-ingest workload WAL-off and WAL-on over a real log directory and report the durability overhead (schema 8)")
	minWALRatio := flag.Float64("min-wal-ratio", 0.7,
		"with -wal: exit 1 if WAL-on ingest throughput falls below this fraction of WAL-off (0 disables; CI's durability gate)")
	flag.Parse()

	// Validate before running anything: an unknown -strategy must abort
	// with the legal names, never fall back to Auto silently.
	strat, err := exec.ParseStrategy(*strategyFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *repeats < 1 {
		fmt.Fprintf(os.Stderr, "jstar-bench: -repeats %d: need at least one measurement repetition\n", *repeats)
		os.Exit(2)
	}
	cfg := config{
		strategy:   strat,
		pvYears:    *years,
		matN:       *matN,
		spVertices: *spV,
		spExtra:    2 * *spV,
		medianN:    *medN,
		repeats:    *repeats,
	}
	for th := 1; th <= *maxThreads; th *= 2 {
		cfg.threadSteps = append(cfg.threadSteps, th)
	}
	// The procs ladder is parsed up front (not just under -speedup) because
	// every artifact header records it: trajectory tooling uses the ladder
	// plus numcpu to reject cross-host comparisons.
	procs, err := parseProcs(*procsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.procsLadder = procs

	fmt.Printf("host: GOMAXPROCS=%d NumCPU=%d\n\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
	ran := false
	want := func(name string) bool {
		if *all {
			return true
		}
		if *fig == name || *table == name {
			ran = true
			return true
		}
		return false
	}
	if *all {
		ran = true
	}
	if want("6") {
		fig6(cfg)
	}
	if want("6.2") {
		fig62(cfg)
	}
	if want("6.3") {
		fig63(cfg)
	}
	if want("1") {
		table1(cfg)
	}
	if want("8") {
		fig8(cfg)
	}
	if want("10") {
		fig10(cfg)
	}
	if want("11") {
		fig11(cfg)
	}
	if want("12") {
		fig12(cfg)
	}
	if want("13") {
		fig13(cfg)
	}
	if want("strategies") {
		strategiesTable(cfg)
	}
	if *phases {
		ran = true
		phasesTable(cfg)
	}
	// The smoke pass, the speedup sweep, the adaptive comparison and the
	// serve load all fill one shared artifact, so a CI job running them
	// uploads a single schema-6 BENCH file.
	var art *smokeArtifact
	ensureArt := func() {
		if art == nil {
			art = newArtifact(cfg)
		}
	}
	var gateFailures []string
	if *smoke {
		ran = true
		ensureArt()
		gateFailures = append(gateFailures, smokeRun(cfg, art, *maxBoundaryFrac)...)
	}
	if *speedup {
		ran = true
		ensureArt()
		gateFailures = append(gateFailures,
			speedupSweep(cfg, art, procs, *minDispatchSpeedup)...)
	}
	if *adaptive {
		ran = true
		ensureArt()
		gateFailures = append(gateFailures, adaptiveRun(cfg, art, *minAdaptiveSpeedup)...)
	}
	if *serveLoad {
		ran = true
		ensureArt()
		gateFailures = append(gateFailures,
			serveLoadRun(art, *serveAddr, *serveClients, *serveBatches, *serveBatchRows)...)
	}
	if *walSmoke {
		ran = true
		ensureArt()
		gateFailures = append(gateFailures, walRun(cfg, art, *minWALRatio)...)
	}
	if art != nil && *jsonPath != "" {
		data, err := json.MarshalIndent(art, "", "  ")
		must(err)
		must(os.WriteFile(*jsonPath, append(data, '\n'), 0o644))
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	// Gates fire after the artifact is written: a failed gate still leaves
	// the measurements on disk for the trajectory.
	for _, f := range gateFailures {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(gateFailures) > 0 {
		os.Exit(1)
	}
	if *savePlan != "" || *storePlan != "" {
		ran = true
		tunePass(cfg, *storePlan, *savePlan)
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// parseProcs parses the -procs list ("1,2,4,8") into GOMAXPROCS values.
func parseProcs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n < 1 {
			return nil, fmt.Errorf("jstar-bench: -procs %q: %q is not a positive integer", s, part)
		}
		out = append(out, n)
	}
	return out, nil
}

// timeIt returns the minimum elapsed time of cfg.repeats runs of fn.
func timeIt(repeats int, fn func()) time.Duration {
	best := time.Duration(1<<62 - 1)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// --- Fig 6: absolute sequential speed, JStar vs hand-coded ------------------

func fig6(cfg config) {
	fmt.Println("== Fig 6: absolute sequential speed, JStar vs hand-coded baseline ==")
	fmt.Println("paper (seconds): PvWatts 4.7 vs 5.9 | MatMult 21.9 (boxed) / 8.1 (fixed) vs 7.5 naive / 1.0 transposed | Dijkstra 3.8 vs 1.8 | Median 6.8 vs 13.4")
	fmt.Printf("%-22s %14s %14s %8s\n", "program", "jstar-seq", "baseline", "ratio")

	csv := pvwatts.GenerateCSV(cfg.pvYears, false, 42)
	tj := timeIt(cfg.repeats, func() {
		_, err := pvwatts.RunJStar(csv, pvwatts.RunOpts{
			Strategy: exec.Sequential, NoDelta: true, Gamma: pvwatts.GammaArrayOfHash})
		must(err)
	})
	tb := timeIt(cfg.repeats, func() {
		_, err := pvwatts.RunBaseline(csv)
		must(err)
	})
	row("PvWatts", tj, tb)

	a, b := matmult.Inputs(cfg.matN, 42)
	tjBoxed := timeIt(1, func() {
		_, err := matmult.RunJStar(matmult.RunOpts{N: cfg.matN, Strategy: exec.Sequential, Boxed: true, Seed: 42})
		must(err)
	})
	tj = timeIt(cfg.repeats, func() {
		_, err := matmult.RunJStar(matmult.RunOpts{N: cfg.matN, Strategy: exec.Sequential, Seed: 42})
		must(err)
	})
	tb = timeIt(cfg.repeats, func() { matmult.Naive(a, b, cfg.matN) })
	tt := timeIt(cfg.repeats, func() { matmult.Transposed(a, b, cfg.matN) })
	row("MatMult (boxed)", tjBoxed, tb)
	row("MatMult (primitive)", tj, tb)
	row("MatMult vs transposed", tj, tt)

	gen := shortestpath.GenOpts{Vertices: cfg.spVertices, Extra: cfg.spExtra, Tasks: 24, Seed: 42}
	tj = timeIt(cfg.repeats, func() {
		_, err := shortestpath.RunJStar(shortestpath.RunOpts{Gen: gen, Strategy: exec.Sequential})
		must(err)
	})
	tb = timeIt(cfg.repeats, func() {
		shortestpath.Baseline(shortestpath.Generate(gen), gen.Vertices)
	})
	row("Dijkstra", tj, tb)

	vals := median.Values(cfg.medianN, 42)
	tj = timeIt(cfg.repeats, func() {
		_, err := median.RunJStar(median.RunOpts{N: cfg.medianN, Regions: 24, Strategy: exec.Sequential, Seed: 42})
		must(err)
	})
	tb = timeIt(cfg.repeats, func() { median.SortBaseline(vals) })
	row("Median (vs sort)", tj, tb)
	fmt.Println()
}

func row(name string, jstar, base time.Duration) {
	fmt.Printf("%-22s %14v %14v %7.2fx\n", name,
		jstar.Round(time.Microsecond), base.Round(time.Microsecond),
		float64(jstar)/float64(base))
}

// --- §6.2: the -noDelta optimisation ----------------------------------------

func fig62(cfg config) {
	fmt.Println("== §6.2: -noDelta PvWatts optimisation (paper: 23.0s -> 8.44s, 2.7x) ==")
	csv := pvwatts.GenerateCSV(cfg.pvYears, false, 42)
	without := timeIt(cfg.repeats, func() {
		_, err := pvwatts.RunJStar(csv, pvwatts.RunOpts{Strategy: exec.Sequential, NoDelta: false})
		must(err)
	})
	with := timeIt(cfg.repeats, func() {
		_, err := pvwatts.RunJStar(csv, pvwatts.RunOpts{Strategy: exec.Sequential, NoDelta: true})
		must(err)
	})
	fmt.Printf("without -noDelta: %12v\n", without.Round(time.Microsecond))
	fmt.Printf("with    -noDelta: %12v\n", with.Round(time.Microsecond))
	fmt.Printf("speedup: %.2fx (paper: 2.73x)\n\n", float64(without)/float64(with))
}

// --- §6.3: phase breakdown and Amdahl bound ---------------------------------

func fig63(cfg config) {
	fmt.Println("== §6.3: PvWatts phase breakdown (paper: 16.9% read / 63.7% insert / 3.8% delta / 15.6% reduce) ==")
	csv := pvwatts.GenerateCSV(cfg.pvYears, false, 42)
	// Calibration pass: parse only, no tuple creation.
	timer := stats.NewPhaseTimer()
	var parseOnly time.Duration
	{
		start := time.Now()
		var sink int64
		err := fastcsv.ReadRegion(csv, fastcsv.Region{Start: 0, End: len(csv)},
			func(rec *fastcsv.Record) error {
				v, err := rec.Int(4)
				sink += v
				return err
			})
		must(err)
		parseOnly = time.Since(start)
		_ = sink
	}
	res, err := pvwatts.RunJStar(csv, pvwatts.RunOpts{
		Strategy: exec.Sequential, NoDelta: true, Gamma: pvwatts.GammaArrayOfHash})
	must(err)
	rn := res.Run.Stats().RuleNanos
	readTotal := time.Duration(rn["readCSV"].Load())
	monthly := time.Duration(rn["monthly"].Load())
	reduceT := time.Duration(rn["reduce"].Load())
	// readCSV's rule time includes creating PvWatts tuples, inserting them
	// into Gamma and firing the monthly rule inline (-noDelta); subtract
	// the nested pieces and the calibrated parse to split the phases.
	insert := readTotal - parseOnly - monthly
	if insert < 0 {
		insert = 0
	}
	timer.Add("reading and parsing the input", parseOnly)
	timer.Add("creating PvWatts tuples + Gamma insert", insert)
	timer.Add("creating SumMonth tuples (Delta tree)", monthly)
	timer.Add("SumMonth reducer loops", reduceT)
	fmt.Print(timer.Report())
	serial := timer.Share("reading and parsing the input")
	fmt.Printf("Amdahl max speedup with 1 reader + 12 consumers: %.2fx (paper: 4.2x)\n\n",
		stats.AmdahlMax(serial, 12))
}

// --- Table 1: Disruptor tuning ----------------------------------------------

func table1(cfg config) {
	fmt.Println("== Table 1: Disruptor options sweep (paper best: ring 1024, Blocking, batch 256, 12 consumers) ==")
	csv := pvwatts.GenerateCSV(cfg.pvYears, false, 42)
	fmt.Printf("%-10s %-26s %8s %12s\n", "ring", "wait", "batch", "time")
	type best struct {
		opts disruptor.Options
		t    time.Duration
	}
	var b *best
	for _, ring := range []int{256, 1024, 4096} {
		for _, wait := range []func() disruptor.WaitStrategy{
			func() disruptor.WaitStrategy { return &disruptor.BlockingWait{} },
			func() disruptor.WaitStrategy { return disruptor.YieldingWait{} },
			func() disruptor.WaitStrategy { return disruptor.BusySpinWait{} },
		} {
			for _, batch := range []int{1, 64, 256} {
				opts := disruptor.Options{RingSize: ring, ClaimBatch: batch,
					Consumers: 12, Wait: wait()}
				t := timeIt(cfg.repeats, func() {
					_, err := pvwatts.RunDisruptor(csv, opts)
					must(err)
				})
				fmt.Printf("%-10d %-26s %8d %12v\n", ring, opts.Wait.Name(), batch,
					t.Round(time.Microsecond))
				if b == nil || t < b.t {
					b = &best{opts: opts, t: t}
				}
			}
		}
	}
	fmt.Printf("best: %s (%v)\n\n", b.opts.String(), b.t.Round(time.Microsecond))
}

// --- Fig 8: PvWatts thread sweep with alternative Gamma structures ----------

func fig8(cfg config) {
	fmt.Println("== Fig 8: PvWatts speedup vs fork/join pool size, per Gamma structure ==")
	fmt.Println("paper: ~4x relative at 8 threads; absolute ~35% lower (concurrent structures cost)")
	csv := pvwatts.GenerateCSV(cfg.pvYears, false, 42)
	seq := timeIt(cfg.repeats, func() {
		_, err := pvwatts.RunJStar(csv, pvwatts.RunOpts{
			Strategy: exec.Sequential, NoDelta: true, Gamma: pvwatts.GammaArrayOfHash})
		must(err)
	})
	fmt.Printf("sequential baseline (array-of-hashsets): %v\n", seq.Round(time.Microsecond))
	for _, g := range []pvwatts.GammaKind{
		pvwatts.GammaDefault, pvwatts.GammaHash, pvwatts.GammaArrayOfHash,
	} {
		fmt.Printf("--- Gamma = %s ---\n", g.Name())
		var elapsed []time.Duration
		for _, th := range cfg.threadSteps {
			t := timeIt(cfg.repeats, func() {
				_, err := pvwatts.RunJStar(csv, pvwatts.RunOpts{
					Strategy: cfg.strategy, Threads: th, NoDelta: true, Gamma: g})
				must(err)
			})
			elapsed = append(elapsed, t)
		}
		fmt.Print(stats.FormatSpeedups(stats.SpeedupTable(cfg.threadSteps, elapsed, seq)))
	}
	fmt.Println()
}

// --- Fig 10: Disruptor PvWatts, sorted vs unsorted input --------------------

func fig10(cfg config) {
	fmt.Println("== Fig 10: Disruptor PvWatts, unsorted vs sorted input ==")
	fmt.Println("paper: 3.31x over sequential (unsorted), 2.52x (sorted; sorted is faster absolutely)")
	for _, sorted := range []bool{false, true} {
		label := "unsorted"
		if sorted {
			label = "sorted"
		}
		csv := pvwatts.GenerateCSV(cfg.pvYears, sorted, 42)
		seq := timeIt(cfg.repeats, func() {
			_, err := pvwatts.RunJStar(csv, pvwatts.RunOpts{
				Strategy: exec.Sequential, NoDelta: true, Gamma: pvwatts.GammaArrayOfHash})
			must(err)
		})
		fmt.Printf("--- %s input (sequential JStar: %v) ---\n", label, seq.Round(time.Microsecond))
		fmt.Printf("%10s %14s %10s\n", "consumers", "time", "speedup")
		for _, consumers := range cfg.threadSteps {
			opts := disruptor.Defaults()
			opts.Consumers = consumers
			t := timeIt(cfg.repeats, func() {
				_, err := pvwatts.RunDisruptor(csv, opts)
				must(err)
			})
			fmt.Printf("%10d %14v %9.2fx\n", consumers, t.Round(time.Microsecond),
				float64(seq)/float64(t))
		}
	}
	fmt.Println()
}

// --- Fig 11/12/13: thread sweeps --------------------------------------------

func sweep(name, paper string, cfg config, seq func() time.Duration, par func(threads int) time.Duration) {
	fmt.Printf("== %s ==\n%s\n", name, paper)
	s := seq()
	fmt.Printf("sequential: %v\n", s.Round(time.Microsecond))
	var elapsed []time.Duration
	for _, th := range cfg.threadSteps {
		elapsed = append(elapsed, par(th))
	}
	fmt.Print(stats.FormatSpeedups(stats.SpeedupTable(cfg.threadSteps, elapsed, s)))
	fmt.Println()
}

func fig11(cfg config) {
	sweep("Fig 11: MatrixMult speedup vs pool size",
		"paper: embarrassingly parallel, good speedup up to ~20 of 32 cores", cfg,
		func() time.Duration {
			return timeIt(cfg.repeats, func() {
				_, err := matmult.RunJStar(matmult.RunOpts{N: cfg.matN, Strategy: exec.Sequential, Seed: 42})
				must(err)
			})
		},
		func(th int) time.Duration {
			return timeIt(cfg.repeats, func() {
				_, err := matmult.RunJStar(matmult.RunOpts{
					N: cfg.matN, Strategy: cfg.strategy, Threads: th, Seed: 42})
				must(err)
			})
		})
}

func fig12(cfg config) {
	gen := shortestpath.GenOpts{Vertices: cfg.spVertices, Extra: cfg.spExtra, Tasks: 24, Seed: 42}
	sweep("Fig 12: Dijkstra speedup vs pool size",
		"paper: mediocre, max 4.0x at 8 cores (Delta-tree contention on Estimate batches)", cfg,
		func() time.Duration {
			return timeIt(cfg.repeats, func() {
				_, err := shortestpath.RunJStar(shortestpath.RunOpts{Gen: gen, Strategy: exec.Sequential})
				must(err)
			})
		},
		func(th int) time.Duration {
			return timeIt(cfg.repeats, func() {
				_, err := shortestpath.RunJStar(shortestpath.RunOpts{
					Gen: gen, Strategy: cfg.strategy, Threads: th})
				must(err)
			})
		})
}

func fig13(cfg config) {
	sweep("Fig 13: Median speedup vs pool size",
		"paper: 8.6x at 12 cores, ~14x at 32 (rolling native-array Gamma)", cfg,
		func() time.Duration {
			return timeIt(cfg.repeats, func() {
				_, err := median.RunJStar(median.RunOpts{
					N: cfg.medianN, Regions: 24, Strategy: exec.Sequential, Seed: 42})
				must(err)
			})
		},
		func(th int) time.Duration {
			return timeIt(cfg.repeats, func() {
				_, err := median.RunJStar(median.RunOpts{
					N: cfg.medianN, Regions: 24, Strategy: cfg.strategy, Threads: th, Seed: 42})
				must(err)
			})
		})
}

// --- CI smoke artifact -------------------------------------------------------

// smokeResult is one measured program in the benchmark-smoke JSON artifact.
type smokeResult struct {
	Name          string  `json:"name"`
	Threads       int     `json:"threads"`
	ElapsedNs     int64   `json:"elapsed_ns"` // min over repeats
	Steps         int64   `json:"steps"`
	TotalFired    int64   `json:"total_fired"`
	FireBatches   int64   `json:"fire_batches"`
	MeanFireChunk float64 `json:"mean_fire_chunk"`
	NsPerFiring   float64 `json:"ns_per_firing"`
	// EventsPerSec is the Session streaming-ingestion throughput (Put →
	// ingress ring → absorb → fire), reported by the session-ingest run
	// only — the perf trajectory of the async event path.
	EventsPerSec float64          `json:"events_per_sec,omitempty"`
	BatchHist    map[string]int64 `json:"batch_hist"`
	// Per-phase step breakdown (schema 3): coordinator nanos in rule
	// dispatch vs the three boundary phases, plus the serial-boundary
	// fraction — the Amdahl number the CI gate watches per commit.
	FireNs       int64   `json:"fire_ns"`
	InsertNs     int64   `json:"insert_ns"`
	MergeNs      int64   `json:"merge_ns"`
	DeltaNs      int64   `json:"delta_ns"`
	BoundaryFrac float64 `json:"boundary_frac"`
	// Tables records, per table, the store kind the run chose, the usage
	// counters, and the kind the planner would pick next time — so the
	// perf trajectory captures planner decisions commit over commit.
	Tables []smokeTableRow `json:"tables"`
}

// smokeTableRow is one table's planner-relevant row in the artifact.
type smokeTableRow struct {
	Table     string `json:"table"`
	Kind      string `json:"kind"`
	Puts      int64  `json:"puts"`
	Dups      int64  `json:"dups"`
	Queries   int64  `json:"queries"`
	Suggested string `json:"suggested,omitempty"`
}

// tableRows renders a run's per-table planner view, sorted by table name.
func tableRows(st *core.RunStats) []smokeTableRow {
	plan := st.SuggestStorePlan()
	rows := make([]smokeTableRow, 0, len(st.Tables))
	for name, ts := range st.Tables {
		rows = append(rows, smokeTableRow{
			Table:     name,
			Kind:      st.StoreKinds[name],
			Puts:      ts.Puts.Load(),
			Dups:      ts.Duplicates.Load(),
			Queries:   ts.Queries.Load(),
			Suggested: plan[name],
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Table < rows[j].Table })
	return rows
}

// boundaryRow is one point of the step-boundary microbench sweep in the
// artifact (the cmd twin of BenchmarkStepBoundary): a fan-out step whose
// firings each put one tuple, crossed over slot counts and batch sizes,
// so the boundary pipeline — sort, seal, merge, Delta load — dominates.
type boundaryRow struct {
	Threads      int     `json:"threads"`
	Batch        int     `json:"batch"`
	ElapsedNs    int64   `json:"elapsed_ns"` // min over repeats
	NsPerTuple   float64 `json:"ns_per_tuple"`
	FireNs       int64   `json:"fire_ns"`
	InsertNs     int64   `json:"insert_ns"`
	MergeNs      int64   `json:"merge_ns"`
	DeltaNs      int64   `json:"delta_ns"`
	BoundaryFrac float64 `json:"boundary_frac"`
}

// speedupRow is one point of the -speedup GOMAXPROCS sweep (schema 4):
// one workload at one processor count under one strategy, with its speedup
// over the workload's sequential single-proc baseline.
type speedupRow struct {
	Name       string `json:"name"`
	Strategy   string `json:"strategy"`
	Gomaxprocs int    `json:"gomaxprocs"`
	Threads    int    `json:"threads"`
	ElapsedNs  int64  `json:"elapsed_ns"` // min over repeats
	// Speedup is sequential-baseline time / this time (1.0 for the
	// baseline row itself).
	Speedup float64 `json:"speedup"`
}

// benchSchema is the BENCH_*.json artifact version. History:
// 1 app runs + batch histograms; 2 per-table planner rows; 3 per-phase
// step breakdown + step-boundary microbench sweep; 4 multi-core speedup
// rows (the -speedup GOMAXPROCS sweep); 5 adaptive drift report (the
// -adaptive frozen-vs-re-planning session comparison); 6 serve-load
// latency report (the -serve-load ingest/quiesce-visibility histograms
// measured over real sockets against jstar-serve); 7 the host's
// procs_ladder in the header so trajectory diffs can reject artifacts
// from mismatched hosts; 8 durability report (the -wal WAL-off/WAL-on
// ingest overhead comparison plus a timed checkpoint+replay recovery over
// the directory the WAL-on run left behind).
const benchSchema = 8

// smokeArtifact is the BENCH_*.json schema CI uploads per run, so the
// perf trajectory (and the batch-size distributions feeding store
// auto-tuning) accumulates across commits.
type smokeArtifact struct {
	Schema     int    `json:"schema"`
	Strategy   string `json:"strategy"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	// ProcsLadder is the GOMAXPROCS ladder sweeps on this host step
	// through (schema 7); with NumCPU it fingerprints the measurement host.
	ProcsLadder []int         `json:"procs_ladder"`
	GoVersion   string        `json:"go_version"`
	Repeats     int           `json:"repeats"`
	Runs        []smokeResult `json:"runs"`
	// StepBoundary is the boundary microbench sweep (schema 3).
	StepBoundary []boundaryRow `json:"step_boundary"`
	// Speedup is the multi-core sweep (schema 4; -speedup only).
	Speedup []speedupRow `json:"speedup,omitempty"`
	// Adaptive is the drift comparison (schema 5; -adaptive only).
	Adaptive *adaptiveReport `json:"adaptive,omitempty"`
	// Serve is the network-load latency report (schema 6; -serve-load only).
	Serve *serveReport `json:"serve,omitempty"`
	// Durability is the WAL overhead + recovery report (schema 8; -wal only).
	Durability *durabilityReport `json:"durability,omitempty"`
}

// migrationRow is one live store migration in the adaptive report.
type migrationRow struct {
	Table   string `json:"table"`
	From    string `json:"from"`
	To      string `json:"to"`
	Quiesce int64  `json:"quiesce"`
	Tuples  int    `json:"tuples"`
	Nanos   int64  `json:"nanos"`
}

// adaptiveReport is the -adaptive comparison (schema 5): the drifting
// two-phase workload run twice — once with the plan frozen at start, once
// with ReplanEvery live re-planning — with per-window phase-2 latencies,
// the adaptive run's migration event log, and the headline
// speedup (frozen mean / adaptive mean over the probe-burst windows).
type adaptiveReport struct {
	Keys            int    `json:"keys"`
	IngestWindows   int    `json:"ingest_windows"`
	ProbeWindows    int    `json:"probe_windows"`
	ProbesPerWindow int    `json:"probes_per_window"`
	ReplanEvery     int    `json:"replan_every"`
	FrozenKind      string `json:"frozen_kind"`   // Reading's store, frozen run
	AdaptiveKind    string `json:"adaptive_kind"` // Reading's store after migration
	// KindAfterIngest is Reading's backend in the adaptive run at the
	// phase-1/phase-2 boundary — the convergence gate's input.
	KindAfterIngest string         `json:"kind_after_ingest"`
	FrozenProbeNs   []int64        `json:"frozen_probe_ns"`
	AdaptiveProbeNs []int64        `json:"adaptive_probe_ns"`
	FrozenMeanNs    float64        `json:"frozen_mean_ns"`
	AdaptiveMeanNs  float64        `json:"adaptive_mean_ns"`
	Speedup         float64        `json:"speedup"`
	Migrations      []migrationRow `json:"migrations"`
	// ConvergeQuiesce is the quiescent boundary at which Reading migrated
	// onto its point-probe backend (0 = never; the convergence gate).
	ConvergeQuiesce int64 `json:"converge_quiesce"`
}

// newArtifact stamps an empty artifact with the host and run configuration.
func newArtifact(cfg config) *smokeArtifact {
	return &smokeArtifact{
		Schema:      benchSchema,
		Strategy:    cfg.strategy.String(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		ProcsLadder: cfg.procsLadder,
		GoVersion:   runtime.Version(),
		Repeats:     cfg.repeats,
	}
}

// smokeRun measures small fixed workloads under the configured strategy,
// filling art's runs and boundary sweep. Counters come from the
// minimum-elapsed run, so ns_per_firing matches elapsed_ns. A non-zero
// maxBoundaryFrac is the CI regression gate: if any app run spends a larger
// fraction of its step loop inside the serial step boundary, the returned
// failures make main exit 1 (after the artifact is written).
func smokeRun(cfg config, art *smokeArtifact, maxBoundaryFrac float64) []string {
	fmt.Println("== Benchmark smoke (CI artifact) ==")
	threads := runtime.NumCPU()
	csv := pvwatts.GenerateCSV(1, false, 42)
	// measure times one workload cfg.repeats times, keeps the fastest
	// repetition's stats, and records it as one artifact row. events > 0
	// marks a streaming-ingestion workload: the row additionally reports
	// events/sec over the fastest repetition.
	measure := func(name string, events int, run func() (*core.RunStats, time.Duration)) {
		var best time.Duration = 1<<62 - 1
		var stats *core.RunStats
		for i := 0; i < cfg.repeats; i++ {
			st, d := run()
			if d < best {
				best = d
				stats = st
			}
		}
		res := smokeResult{
			Name:          name,
			Threads:       threads,
			ElapsedNs:     best.Nanoseconds(),
			Steps:         stats.Steps,
			TotalFired:    stats.TotalFired,
			FireBatches:   stats.FireBatches.Load(),
			MeanFireChunk: stats.MeanFireChunk(),
			BatchHist:     stats.BatchHistogram(),
			Tables:        tableRows(stats),
			FireNs:        stats.FireNanos,
			InsertNs:      stats.InsertNanos,
			MergeNs:       stats.MergeNanos,
			DeltaNs:       stats.DeltaNanos,
			BoundaryFrac:  stats.SerialBoundaryFraction(),
		}
		if stats.TotalFired > 0 {
			res.NsPerFiring = float64(best.Nanoseconds()) / float64(stats.TotalFired)
		}
		rate := fmt.Sprintf("ns/firing=%.0f", res.NsPerFiring)
		if events > 0 {
			res.EventsPerSec = float64(events) / best.Seconds()
			rate = fmt.Sprintf("events/sec=%.0f", res.EventsPerSec)
		}
		art.Runs = append(art.Runs, res)
		fmt.Printf("%-14s %12v  fired=%d  chunks=%d  mean-chunk=%.1f  boundary=%.1f%%  %s\n",
			name, best.Round(time.Microsecond), res.TotalFired, res.FireBatches,
			res.MeanFireChunk, 100*res.BoundaryFrac, rate)
	}
	measure("matmult", 0, func() (*core.RunStats, time.Duration) {
		start := time.Now()
		r, err := matmult.RunJStar(matmult.RunOpts{
			N: 96, Strategy: cfg.strategy, Threads: threads, Seed: 42, PhaseStats: true})
		must(err)
		return r.Run.Stats(), time.Since(start)
	})
	measure("median", 0, func() (*core.RunStats, time.Duration) {
		start := time.Now()
		r, err := median.RunJStar(median.RunOpts{
			N: 100_000, Regions: 24, Strategy: cfg.strategy, Threads: threads, Seed: 42, PhaseStats: true})
		must(err)
		return r.Run.Stats(), time.Since(start)
	})
	measure("pvwatts", 0, func() (*core.RunStats, time.Duration) {
		// Without -noDelta so the readings flow through the Delta set and the
		// batched dispatch path (with -noDelta they fire inline per §5.1).
		start := time.Now()
		r, err := pvwatts.RunJStar(csv, pvwatts.RunOpts{
			Strategy: cfg.strategy, Threads: threads, PhaseStats: true})
		must(err)
		return r.Run.Stats(), time.Since(start)
	})
	// Session streaming ingestion: the main goroutine is a producer
	// Putting external events through the ingress ring while the session
	// coordinator drains concurrently, one quiescence at the end — the
	// async event path whose throughput the artifact tracks (the
	// test-suite twin is BenchmarkSessionIngest).
	const ingestEvents = 100_000
	measure("session-ingest", ingestEvents, func() (*core.RunStats, time.Duration) {
		p, ev := ingestProgram()
		sess, err := p.Start(context.Background(), core.Options{
			Strategy: cfg.strategy, Threads: threads, Quiet: true, PhaseStats: true})
		must(err)
		start := time.Now()
		for j := int64(0); j < ingestEvents; j++ {
			must(sess.Put(tuple.New(ev, tuple.Int(j))))
		}
		must(sess.Quiesce(context.Background()))
		d := time.Since(start)
		must(sess.Close())
		return sess.Stats(), d
	})
	art.StepBoundary = stepBoundarySweep(cfg)
	var failures []string
	if maxBoundaryFrac > 0 {
		for _, r := range art.Runs {
			if r.BoundaryFrac > maxBoundaryFrac {
				failures = append(failures, fmt.Sprintf(
					"jstar-bench: %s serial-boundary fraction %.1f%% exceeds the -max-boundary-frac gate (%.1f%%)",
					r.Name, 100*r.BoundaryFrac, 100*maxBoundaryFrac))
			}
		}
		if len(failures) == 0 {
			fmt.Printf("boundary gate: all runs within %.0f%%\n", 100*maxBoundaryFrac)
		}
	}
	fmt.Println()
	return failures
}

// ingestProgram builds the streaming-ingestion workload shared by the
// session-ingest smoke row and the -wal durability report: external
// Event(n) puts fanned out to Out(n, 2n) by one rule.
func ingestProgram() (*core.Program, *tuple.Schema) {
	p := core.NewProgram()
	ev := p.Table("Event", []tuple.Column{{Name: "n", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Event")})
	out := p.Table("Out",
		[]tuple.Column{{Name: "n", Kind: tuple.KindInt}, {Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Out")})
	p.Order("Event", "Out")
	p.Rule("double", ev, func(c *core.Ctx, t *tuple.Tuple) {
		c.PutNew(out, tuple.Int(t.Int("n")), tuple.Int(2*t.Int("n")))
	})
	return p, ev
}

// --- durability overhead + recovery (-wal) ----------------------------------

// durabilityReport is the -wal report (schema 8): the streaming-ingest
// workload measured with the WAL off and on (real directory, real fsyncs),
// the log's counters after the durable run, and a timed recovery — newest
// checkpoint plus tail replay — over the directory that run left behind.
type durabilityReport struct {
	Events          int     `json:"events"`
	WalOffEventsSec float64 `json:"wal_off_events_per_sec"`
	WalOnEventsSec  float64 `json:"wal_on_events_per_sec"`
	// Ratio is WAL-on / WAL-off throughput — the CI gate's number.
	Ratio         float64 `json:"ratio"`
	GroupCommits  int64   `json:"group_commits"`
	WALBytes      int64   `json:"wal_bytes"`
	Segments      int     `json:"segments"`
	CheckpointSeq uint64  `json:"checkpoint_seq"`
	// RecoverNs is Start-to-quiesced over the logged directory; the
	// recovery rows say what that time paid for.
	RecoverNs        int64  `json:"recover_ns"`
	RecoveredTuples  int    `json:"recovered_tuples"`
	ReplayedEvents   int    `json:"replayed_events"`
	RecoveryDurable  uint64 `json:"recovery_durable_seq"`
	TruncatedBytes   int64  `json:"truncated_bytes"`
	CheckpointTables int    `json:"checkpoint_tables"`
}

// walRun measures the durability tier: ingest throughput WAL-off vs
// WAL-on, then a timed recovery. A non-zero minRatio is the CI overhead
// gate — the durable path must keep at least that fraction of the
// in-memory path's throughput.
func walRun(cfg config, art *smokeArtifact, minRatio float64) []string {
	fmt.Println("== Durability smoke (-wal) ==")
	threads := runtime.NumCPU()
	const events = 100_000
	ctx := context.Background()

	runIngest := func(dur *core.DurabilityOptions, checkpoint bool) (time.Duration, wal.Stats) {
		p, ev := ingestProgram()
		sess, err := p.Start(ctx, core.Options{
			Strategy: cfg.strategy, Threads: threads, Quiet: true, Durability: dur})
		must(err)
		start := time.Now()
		for j := int64(0); j < events; j++ {
			must(sess.Put(tuple.New(ev, tuple.Int(j))))
		}
		must(sess.Quiesce(ctx))
		d := time.Since(start)
		if checkpoint {
			_, err := sess.Checkpoint(ctx)
			must(err)
		}
		st, _ := sess.WALStats()
		must(sess.Close())
		return d, st
	}

	var off time.Duration = 1<<62 - 1
	for i := 0; i < cfg.repeats; i++ {
		if d, _ := runIngest(nil, false); d < off {
			off = d
		}
	}

	var (
		on    time.Duration = 1<<62 - 1
		onSt  wal.Stats
		onDir string
	)
	for i := 0; i < cfg.repeats; i++ {
		dir, err := os.MkdirTemp("", "jstar-wal-bench")
		must(err)
		d, st := runIngest(&core.DurabilityOptions{Dir: dir, Identity: "bench"}, true)
		if d < on {
			on, onSt = d, st
			if onDir != "" {
				os.RemoveAll(onDir)
			}
			onDir = dir
		} else {
			os.RemoveAll(dir)
		}
	}
	defer os.RemoveAll(onDir)

	// Recovery: a fresh program over the best run's directory, timed from
	// Start to the first quiescent boundary (checkpoint load + tail replay
	// + re-derivation all included).
	p2, _ := ingestProgram()
	t0 := time.Now()
	sess2, err := p2.Start(ctx, core.Options{
		Strategy: cfg.strategy, Threads: threads, Quiet: true,
		Durability: &core.DurabilityOptions{Dir: onDir, Identity: "bench"}})
	must(err)
	must(sess2.Quiesce(ctx))
	recoverNs := time.Since(t0).Nanoseconds()
	rec := sess2.Recovery()
	recoveredOut := len(sess2.Snapshot(p2.Schema("Out")))
	must(sess2.Close())
	if rec == nil {
		must(fmt.Errorf("jstar-bench: recovery over %s reported nothing", onDir))
	}
	if recoveredOut != events {
		must(fmt.Errorf("jstar-bench: recovered %d Out rows, want %d", recoveredOut, events))
	}

	rep := &durabilityReport{
		Events:           events,
		WalOffEventsSec:  float64(events) / off.Seconds(),
		WalOnEventsSec:   float64(events) / on.Seconds(),
		GroupCommits:     onSt.GroupCommits,
		WALBytes:         onSt.Bytes,
		Segments:         onSt.Segments,
		CheckpointSeq:    onSt.CheckpointSeq,
		RecoverNs:        recoverNs,
		RecoveredTuples:  rec.CheckpointTuples,
		ReplayedEvents:   rec.Replayed,
		RecoveryDurable:  rec.DurableSeq,
		TruncatedBytes:   rec.TruncatedBytes,
		CheckpointTables: rec.CheckpointTables,
	}
	rep.Ratio = rep.WalOnEventsSec / rep.WalOffEventsSec
	art.Durability = rep
	fmt.Printf("wal-off %11.0f events/sec\nwal-on  %11.0f events/sec  ratio=%.2f  commits=%d  bytes=%d  ckpt-seq=%d\nrecover %11v  (%d ckpt tuples + %d replayed)\n\n",
		rep.WalOffEventsSec, rep.WalOnEventsSec, rep.Ratio, rep.GroupCommits,
		rep.WALBytes, rep.CheckpointSeq, time.Duration(recoverNs).Round(time.Microsecond),
		rep.RecoveredTuples, rep.ReplayedEvents)

	var failures []string
	if minRatio > 0 && rep.Ratio < minRatio {
		failures = append(failures, fmt.Sprintf(
			"jstar-bench: WAL-on ingest throughput is %.2fx WAL-off, below the -min-wal-ratio gate (%.2f)",
			rep.Ratio, minRatio))
	} else if minRatio > 0 {
		fmt.Printf("durability gate: WAL overhead within budget (%.2fx >= %.2fx)\n", rep.Ratio, minRatio)
	}
	return failures
}

// boundaryProgram builds the step-boundary microbench program: one Src
// tuple fans out `batch` Work tuples, and every Work firing puts one Out
// tuple, so each step's boundary handles a batch-sized flush while the
// rule bodies do almost nothing.
func boundaryProgram(batch int) *core.Program {
	p := core.NewProgram()
	icol := func(n string) []tuple.Column { return []tuple.Column{{Name: n, Kind: tuple.KindInt}} }
	src := p.Table("Src", icol("n"), []tuple.OrderEntry{tuple.Lit("Src")})
	work := p.Table("Work", icol("i"), []tuple.OrderEntry{tuple.Lit("Work")})
	out := p.Table("Out", icol("i"), []tuple.OrderEntry{tuple.Lit("Out")})
	p.Order("Src", "Work", "Out")
	p.Rule("fanout", src, func(c *core.Ctx, t *tuple.Tuple) {
		for j := int64(0); j < t.Int("n"); j++ {
			c.PutNew(work, tuple.Int(j))
		}
	})
	p.Rule("emit", work, func(c *core.Ctx, t *tuple.Tuple) {
		c.PutNew(out, t.Get("i"))
	})
	p.Put(tuple.New(src, tuple.Int(int64(batch))))
	return p
}

// dispatchProgram builds the dispatch microbench program (the cmd twin of
// BenchmarkDispatch_PerFiring): one Src tuple fans out `batch` Work tuples
// whose rule bodies do nothing but a counter add, so the measured time is
// rule lookup, Ctx setup and scheduling hand-off — the per-firing dispatch
// cost the parallel strategies must amortise to scale.
func dispatchProgram(batch int, sink *atomic.Int64) *core.Program {
	p := core.NewProgram()
	icol := func(n string) []tuple.Column { return []tuple.Column{{Name: n, Kind: tuple.KindInt}} }
	src := p.Table("Src", icol("n"), []tuple.OrderEntry{tuple.Lit("Src")})
	work := p.Table("Work", icol("i"), []tuple.OrderEntry{tuple.Lit("Work")})
	p.Order("Src", "Work")
	p.Rule("fanout", src, func(c *core.Ctx, t *tuple.Tuple) {
		for j := int64(0); j < t.Int("n"); j++ {
			c.PutNew(work, tuple.Int(j))
		}
	})
	p.Rule("noop", work, func(c *core.Ctx, t *tuple.Tuple) {
		sink.Add(t.Int("i"))
	})
	p.Put(tuple.New(src, tuple.Int(int64(batch))))
	return p
}

// speedupSweep is the -speedup mode: the four paper apps plus the
// dispatch and step-boundary microbenches, each run sequentially once
// (the baseline) and then under the parallel strategy across the -procs
// GOMAXPROCS values, with per-point speedup-vs-serial emitted as schema-4
// artifact rows. A non-zero minDispatch is the CI scaling gate: the
// parallel dispatch microbench at 4 procs (or the largest swept value)
// must reach that multiple of the sequential baseline.
func speedupSweep(cfg config, art *smokeArtifact, procs []int, minDispatch float64) []string {
	strat := cfg.strategy
	if strat == exec.Auto {
		strat = exec.ForkJoin
	}
	fmt.Printf("== Multi-core speedup sweep (strategy=%s, procs=%v) ==\n", strat, procs)
	fmt.Printf("%-14s %-12s %6s %12s %10s\n", "workload", "strategy", "procs", "time", "speedup")
	origProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(origProcs)

	csv := pvwatts.GenerateCSV(cfg.pvYears, false, 42)
	gen := shortestpath.GenOpts{Vertices: cfg.spVertices, Extra: cfg.spExtra, Tasks: 24, Seed: 42}
	// The microbench programs are too short to time once; iterate inside
	// one measurement so a sweep point is tens of milliseconds.
	const dispatchBatch = 4096
	const dispatchIters = 30
	const boundaryBatch = 1 << 13
	const boundaryIters = 5
	var sink atomic.Int64
	workloads := []struct {
		name string
		run  func(st exec.Strategy, threads int)
	}{
		{"pvwatts", func(st exec.Strategy, th int) {
			_, err := pvwatts.RunJStar(csv, pvwatts.RunOpts{
				Strategy: st, Threads: th, NoDelta: true})
			must(err)
		}},
		{"matmult", func(st exec.Strategy, th int) {
			_, err := matmult.RunJStar(matmult.RunOpts{
				N: cfg.matN, Strategy: st, Threads: th, Seed: 42})
			must(err)
		}},
		{"shortestpath", func(st exec.Strategy, th int) {
			_, err := shortestpath.RunJStar(shortestpath.RunOpts{
				Gen: gen, Strategy: st, Threads: th})
			must(err)
		}},
		{"median", func(st exec.Strategy, th int) {
			_, err := median.RunJStar(median.RunOpts{
				N: cfg.medianN, Regions: 24, Strategy: st,
				Threads: th, Seed: 42})
			must(err)
		}},
		{"dispatch", func(st exec.Strategy, th int) {
			for i := 0; i < dispatchIters; i++ {
				_, err := dispatchProgram(dispatchBatch, &sink).Execute(core.Options{
					Strategy: st, Threads: th, Quiet: true})
				must(err)
			}
		}},
		{"step-boundary", func(st exec.Strategy, th int) {
			for i := 0; i < boundaryIters; i++ {
				_, err := boundaryProgram(boundaryBatch).Execute(core.Options{
					Strategy: st, Threads: th, Quiet: true})
				must(err)
			}
		}},
	}
	point := func(name, strategy string, nproc, threads int, d time.Duration, base time.Duration) {
		art.Speedup = append(art.Speedup, speedupRow{
			Name: name, Strategy: strategy, Gomaxprocs: nproc, Threads: threads,
			ElapsedNs: d.Nanoseconds(), Speedup: float64(base) / float64(d),
		})
		fmt.Printf("%-14s %-12s %6d %12v %9.2fx\n",
			name, strategy, nproc, d.Round(time.Microsecond), float64(base)/float64(d))
	}
	for _, w := range workloads {
		w := w
		runtime.GOMAXPROCS(1)
		base := timeIt(cfg.repeats, func() { w.run(exec.Sequential, 1) })
		point(w.name, "sequential", 1, 1, base, base)
		for _, np := range procs {
			np := np
			runtime.GOMAXPROCS(np)
			d := timeIt(cfg.repeats, func() { w.run(strat, np) })
			point(w.name, strat.String(), np, np, d, base)
		}
	}
	runtime.GOMAXPROCS(origProcs)
	fmt.Println()

	var failures []string
	if minDispatch > 0 {
		gate := speedupRow{}
		for _, r := range art.Speedup {
			if r.Name != "dispatch" || r.Strategy == "sequential" {
				continue
			}
			// Prefer the 4-proc point (the CI gate's contract); otherwise
			// keep the largest swept value.
			if r.Gomaxprocs == 4 || (gate.Gomaxprocs != 4 && r.Gomaxprocs > gate.Gomaxprocs) {
				gate = r
			}
		}
		switch {
		case gate.Name == "":
			failures = append(failures, "jstar-bench: -min-dispatch-speedup set but the sweep produced no parallel dispatch rows")
		case gate.Speedup < minDispatch:
			failures = append(failures, fmt.Sprintf(
				"jstar-bench: dispatch %s at %d procs is %.2fx sequential, below the -min-dispatch-speedup gate (%.2fx)",
				gate.Strategy, gate.Gomaxprocs, gate.Speedup, minDispatch))
		default:
			fmt.Printf("dispatch gate: %s at %d procs = %.2fx sequential (>= %.2fx)\n\n",
				gate.Strategy, gate.Gomaxprocs, gate.Speedup, minDispatch)
		}
	}
	return failures
}

// adaptiveRun is the -adaptive pass: the drifting two-phase workload
// (put-dominated ingest, then point-probe bursts against the accumulated
// table) executed once with the store plan frozen at start and once with
// ReplanEvery live re-planning, compared on mean per-window latency over
// the probe-burst phase. Each side keeps the best of cfg.repeats runs.
//
// The convergence gate always applies: the adaptive run must migrate
// Reading onto a hash-family point-probe backend, and must do so within
// the ingest phase plus two probe windows' worth of quiescent boundaries —
// a re-planner that converges later than that isn't following the drift.
// minSpeedup > 0 additionally gates on the measured latency win; CI leaves
// that off on shared runners and the artifact records the numbers instead.
func adaptiveRun(cfg config, art *smokeArtifact, minSpeedup float64) []string {
	fmt.Println("== Adaptive session (drift workload) ==")
	base := drift.RunOpts{
		Keys:            20_000,
		IngestWindows:   4,
		ProbeWindows:    6,
		ProbesPerWindow: 4_000,
		Strategy:        cfg.strategy,
		Threads:         runtime.NumCPU(),
		Seed:            42,
	}
	measure := func(replanEvery int) *drift.Result {
		var best *drift.Result
		for i := 0; i < cfg.repeats; i++ {
			opts := base
			opts.ReplanEvery = replanEvery
			res, err := drift.Run(opts)
			must(err)
			if best == nil || res.ProbeNanosMean() < best.ProbeNanosMean() {
				best = res
			}
		}
		return best
	}
	frozen := measure(0)
	adaptive := measure(1)

	rep := &adaptiveReport{
		Keys:            base.Keys,
		IngestWindows:   base.IngestWindows,
		ProbeWindows:    base.ProbeWindows,
		ProbesPerWindow: base.ProbesPerWindow,
		ReplanEvery:     1,
		FrozenKind:      frozen.ReadingKind,
		AdaptiveKind:    adaptive.ReadingKind,
		KindAfterIngest: adaptive.KindAfterIngest,
		FrozenProbeNs:   frozen.ProbeNanos,
		AdaptiveProbeNs: adaptive.ProbeNanos,
		FrozenMeanNs:    frozen.ProbeNanosMean(),
		AdaptiveMeanNs:  adaptive.ProbeNanosMean(),
	}
	if rep.AdaptiveMeanNs > 0 {
		rep.Speedup = rep.FrozenMeanNs / rep.AdaptiveMeanNs
	}
	for _, m := range adaptive.Stats.Migrations {
		rep.Migrations = append(rep.Migrations, migrationRow{
			Table: m.Table, From: m.From, To: m.To,
			Quiesce: m.Quiesce, Tuples: m.Tuples, Nanos: m.Nanos,
		})
		if m.Table == "Reading" && rep.ConvergeQuiesce == 0 {
			rep.ConvergeQuiesce = m.Quiesce
		}
	}
	art.Adaptive = rep

	fmt.Printf("frozen   Reading=%-10s probe-window mean %10v\n",
		rep.FrozenKind, time.Duration(rep.FrozenMeanNs).Round(time.Microsecond))
	fmt.Printf("adaptive Reading=%-10s probe-window mean %10v  (x%.2f, %d migrations)\n",
		rep.AdaptiveKind, time.Duration(rep.AdaptiveMeanNs).Round(time.Microsecond),
		rep.Speedup, len(rep.Migrations))
	for _, m := range rep.Migrations {
		fmt.Printf("  quiesce %-3d %-8s %s -> %s (%d tuples, %v)\n",
			m.Quiesce, m.Table, m.From, m.To, m.Tuples,
			time.Duration(m.Nanos).Round(time.Microsecond))
	}

	var failures []string
	if frozen.Answers != adaptive.Answers || frozen.Checksum != adaptive.Checksum {
		failures = append(failures, fmt.Sprintf(
			"jstar-bench: adaptive drift run diverged from frozen (answers %d vs %d, checksum %d vs %d)",
			adaptive.Answers, frozen.Answers, adaptive.Checksum, frozen.Checksum))
	}
	if kn := gamma.KindName(rep.AdaptiveKind); kn != "hash" && kn != "inthash" {
		failures = append(failures, fmt.Sprintf(
			"jstar-bench: adaptive drift run left Reading on %q, want a hash-family point-probe backend",
			rep.AdaptiveKind))
	}
	// Convergence gate: the probe trickle must have pulled Reading onto a
	// point-probe backend before the probe bursts started — a re-planner
	// that only reacts once phase 2 hammers it isn't following the drift.
	if kn := gamma.KindName(rep.KindAfterIngest); kn != "hash" && kn != "inthash" {
		failures = append(failures, fmt.Sprintf(
			"jstar-bench: adaptive drift run entered the probe phase with Reading on %q, want a hash-family backend by the end of ingest",
			rep.KindAfterIngest))
	}
	if minSpeedup > 0 && rep.Speedup < minSpeedup {
		failures = append(failures, fmt.Sprintf(
			"jstar-bench: adaptive phase-2 speedup x%.2f below the -min-adaptive-speedup gate (x%.2f)",
			rep.Speedup, minSpeedup))
	}
	if len(failures) == 0 {
		fmt.Printf("adaptive gate: converged at quiesce %d, phase-2 x%.2f\n", rep.ConvergeQuiesce, rep.Speedup)
	}
	fmt.Println()
	return failures
}

// stepBoundarySweep runs the boundary microbench over slot counts and
// batch sizes (the cmd twin of BenchmarkStepBoundary) and prints/returns
// the rows for the artifact.
func stepBoundarySweep(cfg config) []boundaryRow {
	fmt.Println("-- step-boundary microbench (fan-out flush; boundary = insert+merge+delta share) --")
	fmt.Printf("%8s %8s %12s %10s %10s %10s %10s %10s\n",
		"threads", "batch", "time", "ns/tuple", "fire", "insert", "merge", "delta")
	var rows []boundaryRow
	threadSteps := []int{1, runtime.NumCPU()}
	if threadSteps[1] == 1 {
		threadSteps = threadSteps[:1]
	}
	for _, th := range threadSteps {
		for _, batch := range []int{1 << 10, 1 << 13} {
			strat := exec.ForkJoin
			if th == 1 {
				strat = exec.Sequential
			}
			var best time.Duration = 1<<62 - 1
			var st *core.RunStats
			for i := 0; i < cfg.repeats; i++ {
				start := time.Now()
				run, err := boundaryProgram(batch).Execute(core.Options{
					Strategy: strat, Threads: th, Quiet: true, PhaseStats: true})
				must(err)
				if d := time.Since(start); d < best {
					best, st = d, run.Stats()
				}
			}
			row := boundaryRow{
				Threads:      th,
				Batch:        batch,
				ElapsedNs:    best.Nanoseconds(),
				NsPerTuple:   float64(best.Nanoseconds()) / float64(2*batch),
				FireNs:       st.FireNanos,
				InsertNs:     st.InsertNanos,
				MergeNs:      st.MergeNanos,
				DeltaNs:      st.DeltaNanos,
				BoundaryFrac: st.SerialBoundaryFraction(),
			}
			rows = append(rows, row)
			d := func(ns int64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }
			fmt.Printf("%8d %8d %12v %10.1f %10v %10v %10v %10v\n",
				th, batch, best.Round(time.Microsecond), row.NsPerTuple,
				d(row.FireNs), d(row.InsertNs), d(row.MergeNs), d(row.DeltaNs))
		}
	}
	return rows
}

// phasesTable prints the per-phase step breakdown for the three apps —
// where each strategy's time goes at the step boundary, and the serial
// fraction capping its speedup (the §6.3 breakdown generalised).
func phasesTable(cfg config) {
	fmt.Println("== Per-phase step breakdown (fire | insert | merge | delta, boundary = serial share) ==")
	threads := runtime.NumCPU()
	csv := pvwatts.GenerateCSV(cfg.pvYears, false, 42)
	gen := shortestpath.GenOpts{Vertices: cfg.spVertices, Extra: cfg.spExtra, Tasks: 24, Seed: 42}
	apps := []struct {
		name string
		run  func() *core.RunStats
	}{
		{"pvwatts", func() *core.RunStats {
			res, err := pvwatts.RunJStar(csv, pvwatts.RunOpts{
				Strategy: cfg.strategy, Threads: threads, PhaseStats: true})
			must(err)
			return res.Run.Stats()
		}},
		{"matmult", func() *core.RunStats {
			res, err := matmult.RunJStar(matmult.RunOpts{
				N: cfg.matN, Strategy: cfg.strategy, Threads: threads, Seed: 42, PhaseStats: true})
			must(err)
			return res.Run.Stats()
		}},
		{"shortestpath", func() *core.RunStats {
			res, err := shortestpath.RunJStar(shortestpath.RunOpts{
				Gen: gen, Strategy: cfg.strategy, Threads: threads, PhaseStats: true})
			must(err)
			return res.Run.Stats()
		}},
		{"median", func() *core.RunStats {
			res, err := median.RunJStar(median.RunOpts{
				N: cfg.medianN, Regions: 24, Strategy: cfg.strategy, Threads: threads,
				Seed: 42, PhaseStats: true})
			must(err)
			return res.Run.Stats()
		}},
	}
	fmt.Printf("%-14s %12s %10s %10s %10s %10s %10s\n",
		"program", "elapsed", "fire", "insert", "merge", "delta", "boundary")
	for _, app := range apps {
		var best time.Duration = 1<<62 - 1
		var st *core.RunStats
		for i := 0; i < cfg.repeats; i++ {
			start := time.Now()
			s := app.run()
			if d := time.Since(start); d < best {
				best, st = d, s
			}
		}
		d := func(ns int64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }
		fmt.Printf("%-14s %12v %10v %10v %10v %10v %9.1f%%\n",
			app.name, best.Round(time.Microsecond), d(st.FireNanos), d(st.InsertNanos),
			d(st.MergeNanos), d(st.DeltaNanos), 100*st.SerialBoundaryFraction())
	}
	fmt.Println()
}

// --- Strategy shoot-out: the pluggable execution layer -----------------------

// strategiesTable times every app under every executor strategy at the
// host's CPU count — the engine-level counterpart of the paper's thesis
// that the parallelisation strategy is a runtime choice.
func strategiesTable(cfg config) {
	fmt.Println("== Executor strategies: same programs, pluggable engines ==")
	threads := runtime.NumCPU()
	strategies := []exec.Strategy{exec.Sequential, exec.ForkJoin}
	fmt.Printf("%-14s", "program")
	for _, s := range strategies {
		fmt.Printf(" %14s", s)
	}
	fmt.Println()
	csv := pvwatts.GenerateCSV(cfg.pvYears, false, 42)
	gen := shortestpath.GenOpts{Vertices: cfg.spVertices, Extra: cfg.spExtra, Tasks: 24, Seed: 42}
	apps := []struct {
		name string
		run  func(s exec.Strategy)
	}{
		{"MatMult", func(s exec.Strategy) {
			_, err := matmult.RunJStar(matmult.RunOpts{N: cfg.matN, Strategy: s, Threads: threads, Seed: 42})
			must(err)
		}},
		{"PvWatts", func(s exec.Strategy) {
			_, err := pvwatts.RunJStar(csv, pvwatts.RunOpts{Strategy: s, Threads: threads, NoDelta: true})
			must(err)
		}},
		{"Dijkstra", func(s exec.Strategy) {
			_, err := shortestpath.RunJStar(shortestpath.RunOpts{Gen: gen, Strategy: s, Threads: threads})
			must(err)
		}},
		{"Median", func(s exec.Strategy) {
			_, err := median.RunJStar(median.RunOpts{N: cfg.medianN, Regions: 24, Strategy: s, Threads: threads, Seed: 42})
			must(err)
		}},
	}
	for _, app := range apps {
		fmt.Printf("%-14s", app.name)
		for _, s := range strategies {
			s := s
			t := timeIt(cfg.repeats, func() { app.run(s) })
			fmt.Printf(" %14v", t.Round(time.Microsecond))
		}
		fmt.Println()
	}
	fmt.Println()
}

// --- Store-plan tuning loop ---------------------------------------------------

// tunePlans is the -save-plan JSON schema: one suggested store plan per app.
type tunePlans map[string]gamma.StorePlan

// tunePass is the profile-guided two-run tuning loop over the real apps:
//
//	jstar-bench -save-plan plan.json    # run 1: measure, suggest, save
//	jstar-bench -store-plan plan.json   # run 2: replay the plan, compare
//
// Each app runs cfg.repeats times (minimum taken, counters from the
// fastest repetition); with -store-plan the saved per-app plan is applied
// through the app's StorePlan option, and the per-table report shows which
// backends the plan actually changed.
func tunePass(cfg config, loadPath, savePath string) {
	applied := tunePlans{}
	if loadPath != "" {
		data, err := os.ReadFile(loadPath)
		must(err)
		must(json.Unmarshal(data, &applied))
		fmt.Printf("== Store-plan tuning pass (replaying %s) ==\n", loadPath)
	} else {
		fmt.Println("== Store-plan tuning pass (baseline; save with -save-plan) ==")
	}
	threads := runtime.NumCPU()
	csv := pvwatts.GenerateCSV(cfg.pvYears, false, 42)
	gen := shortestpath.GenOpts{Vertices: cfg.spVertices, Extra: cfg.spExtra, Tasks: 24, Seed: 42}
	apps := []struct {
		name string
		run  func(plan gamma.StorePlan) *core.RunStats
	}{
		{"pvwatts", func(plan gamma.StorePlan) *core.RunStats {
			res, err := pvwatts.RunJStar(csv, pvwatts.RunOpts{
				Strategy: cfg.strategy, Threads: threads, StorePlan: plan})
			must(err)
			return res.Run.Stats()
		}},
		{"matmult", func(plan gamma.StorePlan) *core.RunStats {
			res, err := matmult.RunJStar(matmult.RunOpts{
				N: cfg.matN, Strategy: cfg.strategy, Threads: threads, StorePlan: plan, Seed: 42})
			must(err)
			return res.Run.Stats()
		}},
		{"shortestpath", func(plan gamma.StorePlan) *core.RunStats {
			res, err := shortestpath.RunJStar(shortestpath.RunOpts{
				Gen: gen, Strategy: cfg.strategy, Threads: threads, StorePlan: plan})
			must(err)
			return res.Run.Stats()
		}},
		{"median", func(plan gamma.StorePlan) *core.RunStats {
			res, err := median.RunJStar(median.RunOpts{
				N: cfg.medianN, Regions: 24, Strategy: cfg.strategy, Threads: threads,
				StorePlan: plan, Seed: 42})
			must(err)
			return res.Run.Stats()
		}},
	}
	suggested := tunePlans{}
	for _, app := range apps {
		plan := applied[app.name]
		var best time.Duration = 1<<62 - 1
		var st *core.RunStats
		for i := 0; i < cfg.repeats; i++ {
			start := time.Now()
			s := app.run(plan)
			if d := time.Since(start); d < best {
				best, st = d, s
			}
		}
		suggested[app.name] = st.SuggestStorePlan()
		fmt.Printf("%-14s %12v  (min of %d, %d tables planned)\n",
			app.name, best.Round(time.Microsecond), cfg.repeats, len(plan))
		fmt.Printf("  %-16s %-16s %10s %10s %8s  %s\n", "table", "kind", "puts", "dups", "queries", "suggested")
		for _, row := range tableRows(st) {
			marker := ""
			if row.Suggested != "" && row.Suggested != row.Kind {
				marker = " *"
			}
			fmt.Printf("  %-16s %-16s %10d %10d %8d  %s%s\n",
				row.Table, row.Kind, row.Puts, row.Dups, row.Queries, row.Suggested, marker)
		}
	}
	if savePath != "" {
		data, err := json.MarshalIndent(suggested, "", "  ")
		must(err)
		must(os.WriteFile(savePath, append(data, '\n'), 0o644))
		fmt.Printf("suggested store plans written to %s (replay with -store-plan)\n", savePath)
	}
	fmt.Println()
}
