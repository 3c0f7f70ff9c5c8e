package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/jstar-lang/jstar/internal/apps/matmult"
	"github.com/jstar-lang/jstar/internal/apps/pvwatts"
	"github.com/jstar-lang/jstar/internal/apps/shortestpath"
	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/exec"
)

// defaultStrategy is the zero value: the strategy a user who sets nothing
// gets. The benchmark never names a strategy; the exec rows walk
// exec.StrategyNames().
var defaultStrategy exec.Strategy

// engineApp is one paper app driven through its package's own entry
// points.
type engineApp struct {
	// prepare makes the inputs from the seed and computes the reference
	// result with the hand-coded program, returning how long the reference
	// alone took.
	prepare func(seed uint64) (time.Duration, error)
	// run executes the JStar program once to fixpoint and reports whether
	// its result equals the reference.
	run func(st exec.Strategy, phaseStats bool) (*core.Run, bool, error)
}

func runPvwatts(e *env) (*result, error) {
	var (
		csv  []byte
		want map[pvwatts.MonthKey]float64
	)
	return runEngine(e, engineApp{
		prepare: func(seed uint64) (time.Duration, error) {
			csv = pvwatts.GenerateCSV(e.sz.PvYears, false, seed)
			t0 := time.Now()
			var err error
			want, err = pvwatts.RunBaseline(csv)
			return time.Since(t0), err
		},
		run: func(st exec.Strategy, phase bool) (*core.Run, bool, error) {
			res, err := pvwatts.RunJStar(csv, pvwatts.RunOpts{Strategy: st, PhaseStats: phase})
			if err != nil {
				return nil, false, err
			}
			ok := len(res.Means) == len(want)
			for k, w := range want {
				g, found := res.Means[k]
				if !found || math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
					ok = false
				}
			}
			return res.Run, ok, nil
		},
	})
}

func runMatmult(e *env) (*result, error) {
	var (
		seed uint64
		want []int64
	)
	n := e.sz.MatN
	return runEngine(e, engineApp{
		prepare: func(s uint64) (time.Duration, error) {
			seed = s
			a, b := matmult.Inputs(n, seed)
			t0 := time.Now()
			want = matmult.Transposed(a, b, n)
			return time.Since(t0), nil
		},
		run: func(st exec.Strategy, phase bool) (*core.Run, bool, error) {
			res, err := matmult.RunJStar(matmult.RunOpts{N: n, Seed: seed, Strategy: st, PhaseStats: phase})
			if err != nil {
				return nil, false, err
			}
			return res.Run, equalInts(res.C, want), nil
		},
	})
}

func runShortestpath(e *env) (*result, error) {
	var (
		gen  shortestpath.GenOpts
		want []int64
	)
	return runEngine(e, engineApp{
		prepare: func(seed uint64) (time.Duration, error) {
			gen = shortestpath.GenOpts{Vertices: e.sz.SpVertices, Extra: e.sz.SpVertices, Tasks: 4, Seed: seed}
			edges := shortestpath.Generate(gen)
			t0 := time.Now()
			want = shortestpath.Baseline(edges, gen.Vertices)
			return time.Since(t0), nil
		},
		run: func(st exec.Strategy, phase bool) (*core.Run, bool, error) {
			res, err := shortestpath.RunJStar(shortestpath.RunOpts{Gen: gen, Strategy: st, PhaseStats: phase})
			if err != nil {
				return nil, false, err
			}
			return res.Run, equalInts(res.Dist, want), nil
		},
	})
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runEngine is the shared shape of the three engine workloads: set up a
// few times, warm up once, then run to fixpoint repeatedly for the
// measuring window and report medians.
func runEngine(e *env, app engineApp) (*result, error) {
	res := newResult()
	var setups, baselines []float64
	for i := 0; i < e.sz.Setups; i++ {
		t0 := time.Now()
		base, err := app.prepare(e.seed)
		if err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		baselines = append(baselines, base.Seconds())
	}
	res.metrics["setup_s"] = median(setups)

	if _, _, err := app.run(defaultStrategy, false); err != nil { // warm-up
		return nil, err
	}

	// The traced run shares its window with the strategy sweep and the
	// layer probes, and alternates PhaseStats off and on so that its cost
	// is read from the same minutes of the same host.
	window := e.seconds
	if e.trace {
		window *= 0.4
	}
	var (
		plain, phased []float64 // seconds per run, PhaseStats off / on
		cpus          []float64 // CPU microseconds per live tuple, per run
		tuples        int64
		last          *core.Run
		ph            phaseSums
	)
	mem0, start := readMem(), time.Now()
	for i := 0; i < e.sz.MinIters || time.Since(start).Seconds() < window; i++ {
		phase := e.trace && i%2 == 1
		runtime.GC() // every iteration starts from the same heap, outside its timing
		root := e.tr.begin("execute", -1, i)
		cpu0, t0 := cpuSeconds(), time.Now()
		run, ok, err := app.run(defaultStrategy, phase)
		if err != nil {
			return nil, err
		}
		d, cpu := time.Since(t0), cpuSeconds()-cpu0
		e.tr.end(root)
		res.attempted++
		if !ok {
			res.failed++
		}
		st := run.Stats()
		tuples += st.TotalLive
		cpus = append(cpus, ratio(cpu*1e6, float64(st.TotalLive)))
		if phase {
			phased = append(phased, d.Seconds())
			ph.add(st)
			at := e.tr.start(root)
			for _, p := range []struct {
				name string
				ns   int64
			}{{"core.insert", st.InsertNanos}, {"core.fire", st.FireNanos}, {"core.merge", st.MergeNanos}, {"core.delta", st.DeltaNanos}} {
				e.tr.add(p.name, root, i, at, p.ns)
				at += p.ns
			}
		} else {
			plain = append(plain, d.Seconds())
		}
		last = run
	}
	mem := memSince(mem0)

	fix := median(plain)
	res.metrics["latency_p50_ms"] = fix * 1e3
	res.metrics["tuples_per_s"] = ratio(float64(tuples)/float64(res.attempted), fix)
	res.metrics["cpu_us_per_tuple"] = median(cpus)
	res.metrics["peak_rss_mb"] = peakRSSMB()
	if !e.trace {
		return res, nil
	}

	m := res.metrics
	ph.into(m)
	m["trace.overhead_frac"] = ratio(median(phased), fix) - 1
	mem.into(m, float64(tuples))
	m["apps.baseline_s"] = median(baselines)
	m["apps.vs_baseline"] = ratio(fix, median(baselines))

	// exec: the same run under every strategy the engine lists, round
	// robin until the window closes, so each strategy sees the same drift.
	times := make(map[string][]float64)
	sweepStart := time.Now()
	for round := 0; round < 3 && (round == 0 || time.Since(sweepStart).Seconds() < e.seconds*0.35); round++ {
		for _, name := range exec.StrategyNames() {
			st, err := exec.ParseStrategy(name)
			if err != nil {
				return nil, err
			}
			sp := e.tr.begin("exec."+name, -1, round)
			t0 := time.Now()
			_, ok, err := app.run(st, false)
			if err != nil {
				return nil, err
			}
			times[name] = append(times[name], time.Since(t0).Seconds())
			e.tr.end(sp)
			res.attempted++
			if !ok {
				res.failed++
			}
		}
	}
	strategyRows(res, times, fix)

	probeLayers(e, res, last)
	return res, nil
}

// strategyRows folds the per-strategy times into the exec rows. The
// strategy names themselves go to the trace file's detail, not into
// metric names, so that deleting a strategy never edits the benchmark.
func strategyRows(res *result, times map[string][]float64, def float64) {
	best, worst := math.Inf(1), 0.0
	for name, ts := range times {
		med := median(ts)
		res.detail["exec."+name+"_s"] = med
		best, worst = math.Min(best, med), math.Max(worst, med)
	}
	if len(times) == 0 {
		return
	}
	res.metrics["exec.strategies"] = float64(len(times))
	res.metrics["exec.best_s"] = best
	res.metrics["exec.worst_s"] = worst
	res.metrics["exec.best_over_default"] = ratio(def, best)
}

// phaseSums accumulates RunStats over the PhaseStats iterations; the core
// rows are ratios of the sums.
type phaseSums struct {
	runs                       int
	live, steps, chunks        int64
	insert, fire, merge, delta int64
	puts, dups                 int64
}

func (p *phaseSums) add(st *core.RunStats) {
	p.runs++
	p.live += st.TotalLive
	p.steps += st.Steps
	p.chunks += st.FireBatches.Load()
	p.insert += st.InsertNanos
	p.fire += st.FireNanos
	p.merge += st.MergeNanos
	p.delta += st.DeltaNanos
	for _, t := range st.Tables {
		p.puts += t.Puts.Load()
		p.dups += t.Duplicates.Load()
	}
}

func (p *phaseSums) into(m map[string]float64) {
	if p.runs == 0 {
		return
	}
	live := float64(p.live)
	m["core.insert_ns_per_tuple"] = ratio(float64(p.insert), live)
	m["core.merge_ns_per_tuple"] = ratio(float64(p.merge), live)
	m["core.delta_ns_per_tuple"] = ratio(float64(p.delta), live)
	m["core.fire_ns_per_tuple"] = ratio(float64(p.fire), live)
	m["core.boundary_frac"] = ratio(float64(p.insert+p.merge+p.delta), float64(p.insert+p.merge+p.delta+p.fire))
	m["core.mean_fire_chunk"] = ratio(live, float64(p.chunks))
	m["core.dup_frac"] = ratio(float64(p.dups), float64(p.puts))
	m["core.steps"] = float64(p.steps) / float64(p.runs)
	m["core.mean_step_tuples"] = ratio(live, float64(p.steps))
}
