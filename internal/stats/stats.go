// Package stats provides the measurement and visualisation tooling around
// the engine: phase timers for the §6.3-style breakdowns, the latency
// histogram behind the service's /metrics, the per-run reports cmd/jstar
// -stats prints, and DOT renderings of program dependency graphs and
// observed dataflow (Fig 7's blue-rectangle/red-circle views).
package stats

import (
	"cmp"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/jstar-lang/jstar/internal/core"
)

// PhaseTimer accumulates named phase durations and reports each phase's
// share of the total, like the §6.3 breakdown (16.9% read / 63.7% insert /
// 3.8% delta / 15.6% reduce).
type PhaseTimer struct {
	names  []string
	totals map[string]time.Duration
}

// NewPhaseTimer returns an empty timer.
func NewPhaseTimer() *PhaseTimer {
	return &PhaseTimer{totals: make(map[string]time.Duration)}
}

// Add records d against phase name (registering it on first use).
func (p *PhaseTimer) Add(name string, d time.Duration) {
	if _, ok := p.totals[name]; !ok {
		p.names = append(p.names, name)
	}
	p.totals[name] += d
}

// Time runs fn, recording its duration against name.
func (p *PhaseTimer) Time(name string, fn func()) {
	start := time.Now()
	fn()
	p.Add(name, time.Since(start))
}

// Total returns the sum over all phases.
func (p *PhaseTimer) Total() time.Duration {
	var t time.Duration
	for _, d := range p.totals {
		t += d
	}
	return t
}

// Share returns phase name's fraction of the total (0 when empty).
func (p *PhaseTimer) Share(name string) float64 {
	t := p.Total()
	if t == 0 {
		return 0
	}
	return float64(p.totals[name]) / float64(t)
}

// Report renders the percentage breakdown in registration order.
func (p *PhaseTimer) Report() string {
	var b strings.Builder
	total := p.Total()
	for _, n := range p.names {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(p.totals[n]) / float64(total)
		}
		fmt.Fprintf(&b, "%5.1f%%  %-28s %v\n", pct, n, p.totals[n].Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "total   %v\n", total.Round(time.Microsecond))
	return b.String()
}

// AmdahlMax computes the maximum speedup with the given serial fraction and
// worker count: 1 / (serial + (1-serial)/workers) — the paper's 4.2x bound
// for PvWatts with a single reader and 12 consumers.
func AmdahlMax(serialFraction float64, workers int) float64 {
	return 1 / (serialFraction + (1-serialFraction)/float64(workers))
}

// ProgramDOT renders the static dependency graph of a program: tables as
// blue boxes, rules as red circles, edges trigger-table -> rule. Put edges
// come from the run's observed dataflow when a run is supplied, sorted by
// (rule, table) so a run renders the same DOT every time.
func ProgramDOT(p *core.Program, run *core.Run) string {
	var b strings.Builder
	b.WriteString("digraph jstar {\n  rankdir=LR;\n")
	for _, s := range p.Tables() {
		fmt.Fprintf(&b, "  %q [shape=box, style=filled, fillcolor=lightblue];\n", s.Name)
	}
	for _, r := range p.Rules() {
		fmt.Fprintf(&b, "  %q [shape=ellipse, style=filled, fillcolor=lightcoral];\n", r.Name)
		fmt.Fprintf(&b, "  %q -> %q [style=bold];\n", r.Trigger.Name, r.Name)
	}
	if run != nil {
		flow := run.Stats().FlowEdges()
		edges := slices.SortedFunc(maps.Keys(flow), func(a, b [2]string) int {
			return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
		})
		for _, edge := range edges {
			rule, table, n := edge[0], edge[1], flow[edge]
			if rule == "put" {
				fmt.Fprintf(&b, "  %q -> %q [label=\"init x%d\", style=dashed];\n", "start", table, n)
				continue
			}
			fmt.Fprintf(&b, "  %q -> %q [label=\"x%d\"];\n", rule, table, n)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// TableReport renders per-table usage counters from a run, sorted by name —
// the §1.5 "usage statistics about each table during a program run" — plus
// the store backend each table ran on and the kind the planner would pick
// for a re-run (blank when it has no opinion or agrees implicitly).
func TableReport(run *core.Run) string {
	st := run.Stats()
	plan := st.SuggestStorePlan()
	names := make([]string, 0, len(st.Tables))
	for n := range st.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "run: strategy=%s gomaxprocs=%d\n",
		run.StrategyName(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "%-16s %-16s %12s %12s %12s %12s  %s\n",
		"table", "store", "puts", "dups", "triggers", "queries", "suggested")
	for _, n := range names {
		t := st.Tables[n]
		fmt.Fprintf(&b, "%-16s %-16s %12d %12d %12d %12d  %s\n",
			n, st.StoreKinds[n], t.Puts.Load(), t.Duplicates.Load(),
			t.Triggers.Load(), t.Queries.Load(), plan[n])
	}
	fmt.Fprintf(&b, "steps=%d fanned=%d maxBatch=%d fired=%d elapsed=%v\n",
		st.Steps, st.FannedSteps, st.MaxBatch, st.TotalFired, st.Elapsed.Round(time.Microsecond))
	b.WriteString(PhaseLine(st))
	return b.String()
}

// PhaseLine renders the per-phase step breakdown of a run — the §6.3-style
// fire/insert/merge/delta split, plus the serial-boundary fraction that
// Amdahl-caps parallel speedup. Empty when the run recorded no phases
// (e.g. a run that never stepped).
func PhaseLine(st *core.RunStats) string {
	if st.BoundaryNanos()+st.FireNanos == 0 {
		return ""
	}
	d := func(ns int64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }
	return fmt.Sprintf("phases: fire=%v insert=%v merge=%v delta=%v boundary=%.1f%%\n",
		d(st.FireNanos), d(st.InsertNanos), d(st.MergeNanos), d(st.DeltaNanos),
		100*st.SerialBoundaryFraction())
}
