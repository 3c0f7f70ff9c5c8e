// Package exec is the execution layer of the JStar engine: it owns the step
// loop that repeatedly extracts the minimal causal equivalence class from
// the Delta set and fires the triggered rules, and it decides *where* those
// firings run.
//
// The paper's thesis is that parallelisation is the runtime's choice, not a
// program change (§1, §5). There is one step loop (Loop), and the choice
// is made per step from that step's own clock and nothing else: the
// coordinator fires the live batch inline in doubling chunks, reading the
// clock after each, and as soon as the unfired rest is predicted to cost
// fanOutMinNanos it hands that rest to the pool. A step of cheap firings
// never wakes a worker; a step of heavy ones goes parallel after its first
// few firings; a rule seen for the first time needs no history. Every
// participant of a fanned-out step seals its own put run when the chunk
// cursor runs dry, so such a step costs one barrier.
//
// The strategies are that loop under three settings of its gate:
//
//   - Auto (the zero value, what every user gets): the measured gate.
//   - Sequential: no pool, the gate never opens (the -sequential code
//     generator).
//   - ForkJoin: the gate forced open — every multi-chunk step fans out
//     (the paper's parallel code generator, §5, and the row that keeps
//     "default = best" honest in the benchmark).
//
// # The batch-first Host contract
//
// The loop executes against the Host interface, and dispatch is batch-first
// on both sides of a firing:
//
//   - Writes: rule firings append new tuples to per-worker put buffers
//     (identified by the slot index passed to FireBatch). At the step
//     boundary each buffer is sealed — sorted and handed off as one
//     pre-sorted run (SealSlot, called from the workers so the sorting
//     parallelises) — and the coordinator k-way merges the runs into the
//     Delta tree (EndStep). No firing ever takes the Delta-tree lock.
//   - Dispatch: the loop never hands tuples to the engine one at a time.
//     It partitions each step's live batch into contiguous chunks — the
//     coordinator's doubling inline chunks, grain-sized chunks claimed by
//     pool workers — and passes each whole chunk to one FireBatch call. The
//     engine amortises rule lookup, statistics accounting and rule-context
//     setup over the chunk, then fires each tuple through the rule's
//     per-tuple body. This is the Disruptor discipline of always consuming
//     the full available batch, applied to rule dispatch.
//
// Within one step the firing order of chunks (and of tuples inside a
// chunk) is unspecified, exactly as the paper specifies for one parallel
// batch; only the causal step boundaries order execution.
package exec

import (
	"fmt"
	"strings"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// Strategy selects how rule firings are scheduled.
type Strategy int

const (
	// Auto fires each step inline until the step's own clock proves it
	// heavy, then fans the rest out over the pool (the measured gate).
	Auto Strategy = iota
	// Sequential fires every rule on the coordinator goroutine.
	Sequential
	// ForkJoin fans every multi-chunk step out over the pool.
	ForkJoin
)

// String returns the flag spelling of s.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Sequential:
		return "sequential"
	case ForkJoin:
		return "forkjoin"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// StrategyNames lists the canonical -strategy flag spellings, in menu
// order. Command-line tools use it to build usage strings and rejection
// messages, so the legal set lives in exactly one place.
func StrategyNames() []string {
	return []string{"auto", "sequential", "forkjoin"}
}

// ParseStrategy parses a -strategy flag value. Unknown values are an
// error that lists the legal names; they never fall back silently.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "", "auto":
		return Auto, nil
	case "seq", "sequential":
		return Sequential, nil
	case "forkjoin", "fork-join", "fj":
		return ForkJoin, nil
	}
	return Auto, fmt.Errorf("jstar: unknown strategy %q (valid: %s)", s, strings.Join(StrategyNames(), "|"))
}

// Host is the engine surface the Loop drives; implemented by core's session.
// The contract is batch-first: NextBatch/BeginStep/Now/FanOut/EndStep are
// called by the loop's coordinator goroutine only; FireBatch may be called
// from many goroutines concurrently, each with a distinct slot (0 is
// reserved for the coordinator) and a chunk of the live batch BeginStep
// returned. Chunks passed to FireBatch must partition the live batch —
// every live tuple is fired exactly once per step.
type Host interface {
	// NextBatch extracts the next minimal causal equivalence class,
	// handling step accounting, failure checks and the step limit. A nil
	// batch with nil error means the Delta set has drained.
	NextBatch() ([]*tuple.Tuple, error)
	// BeginStep inserts the batch into the Gamma database (batch-wise, with
	// set-semantics dedup) and runs external actions, returning the live
	// tuples whose rules must fire. The returned slice is sorted by schema
	// then fields, so contiguous chunks of it stay schema-clustered.
	BeginStep(batch []*tuple.Tuple) []*tuple.Tuple
	// FireBatch fires every rule triggered by each tuple of ts, buffering
	// puts under slot. The engine amortises rule lookup and statistics over
	// the chunk and hands schema-homogeneous runs to batch-aware rule
	// bodies in one call.
	FireBatch(ts []*tuple.Tuple, slot int)
	// Now reads the host's monotonic clock, in nanoseconds. The measured
	// gate times a step's inline firings with it — the host's clock rather
	// than the loop's own, so a test that fakes the one fakes the other.
	Now() int64
	// FanOut notes that the current step's firings are leaving the
	// coordinator for the workers (RunStats.FannedSteps).
	FanOut()
	// SealSlot sorts slot's put buffer and hands it off as one pre-sorted
	// run for the step's flush merge. A fan-out calls it from each worker
	// once that worker's firings are done, so the sort half of the step
	// boundary runs in parallel; it may be called concurrently for distinct
	// slots (concurrent calls for the same slot are safe but pointless).
	// Calling it is an optimisation, not an obligation — EndStep seals
	// whatever was left unsealed.
	SealSlot(slot int)
	// EndStep merges the sealed per-slot runs into one sorted,
	// deduplicated flush and bulk-loads it into the Delta tree.
	EndStep()
	// Err returns the first failure recorded by a rule, or nil.
	Err() error
}

// Pool abstracts the fork/join pool the step loop fans out on (implemented
// by forkjoin.Pool and core.PoolRef).
type Pool interface {
	Size() int
	// ForWorker runs body(slot, i) for every i in [0, n): slot 0 is the
	// calling goroutine, slots 1..Size() the pool workers. A participant
	// that finds no index left calls done(slot) before it leaves, so a
	// per-participant epilogue shares the loop's one barrier.
	ForWorker(n, grain int, body func(slot, i int), done func(slot int))
}

// ChunkGrain returns the chunk size a fan-out uses to partition n live
// tuples across `workers` participants: about four chunks per worker, so
// the pool can rebalance skewed chunks, while each FireBatch call still
// amortises dispatch over many tuples.
func ChunkGrain(n, workers int) int {
	if workers < 1 {
		workers = 1
	}
	g := (n + 4*workers - 1) / (4 * workers)
	if g < 1 {
		g = 1
	}
	return g
}

// fanOutMinNanos is the measured gate's threshold: a step leaves the
// coordinator once its unfired rest is predicted to cost this long. It is
// a constant, not an option, set from BenchmarkFanOutBreakEven — a step of
// 8 firings, inline against fanned out over a parked 2-worker pool, fire
// phase only, on the 2-vCPU reference box (medians of 3 × 2000 steps):
//
//	step work   inline    fan-out
//	 ~40 µs      43 µs     59 µs   (1.36× slower)
//	~240 µs     246 µs    180 µs   (1.37× faster)
//	~800 µs     807 µs    474 µs   (1.70× faster)
//
// The fire phase alone breaks even near 100 µs. The threshold sits at five
// times that because a fan-out costs more than its wake-up: the step's puts
// reach EndStep as one run per participant, so the flush is a k-way merge
// where an inline step's single run is handed to the Delta tree without a
// copy, and the woken workers burn CPU the wall clock does not show. At
// 500 µs the fan-out still saves a third of the fire phase, and the steps
// it leaves inline — the service workloads' 64 to 1000 firings of under a
// microsecond — are the ones whose time is in the boundary anyway.
const fanOutMinNanos = 500_000

// probeChunk is the first inline chunk of a measured step, in tuples; each
// later chunk doubles, so a step that stays inline reads the clock
// O(log n) times and still hands the engine large chunks.
const probeChunk = 8

// shouldFanOut is the measured gate: with `fired` units of this step done
// in `elapsed` nanoseconds, is the predicted cost of the `remaining` ones
// worth a fan-out. A pure function of the step's own progress — no
// history, no tuning state.
func shouldFanOut(fired int, elapsed int64, remaining int) bool {
	return float64(remaining)*float64(elapsed) >= fanOutMinNanos*float64(fired)
}

// Loop is the step loop behind every strategy, parameterised by a pool and
// a gate. Drain is resumable: it may be called any number of times, and the
// host may grow the Delta set between (and during) calls — the Session
// coordinator re-enters Drain after every batch of externally injected
// tuples, and its host absorbs the pending ingress inside NextBatch, so the
// loop never assumes seed-then-drain-once. It owns no goroutines.
type Loop struct {
	pool Pool // nil: every step fires on the coordinator
	open bool // gate forced open: fan out without measuring

	// The step being fired. A fan-out covers live[lo:] in grain-sized
	// chunks. Written by the coordinator before the pool's barrier, read by
	// the participants inside it.
	h         Host
	live      []*tuple.Tuple
	lo, grain int
	// fireChunk and sealSlot bound once, so a step allocates no closure.
	body func(slot, i int)
	done func(slot int)
}

// New builds the step loop for strategy s. pool is what a step may fan out
// on; nil means the run cannot fan out, and then every strategy is the
// coordinator firing alone. Sequential never uses the pool.
func New(s Strategy, pool Pool) (*Loop, error) {
	e := &Loop{}
	switch s {
	case Auto:
		e.pool = pool
	case Sequential:
	case ForkJoin:
		e.pool, e.open = pool, true
	default:
		return nil, fmt.Errorf("jstar: unknown strategy %v (valid: %s)", s, strings.Join(StrategyNames(), "|"))
	}
	e.body, e.done = e.fireChunk, e.sealSlot
	return e, nil
}

// Drain runs execution steps — extract the minimal class, move it into
// Gamma, fire it, flush the puts — until the Delta set is empty or the run
// fails.
func (e *Loop) Drain(h Host) error {
	for {
		batch, err := h.NextBatch()
		if err != nil {
			return err
		}
		if batch == nil {
			return h.Err()
		}
		e.fireStep(h, h.BeginStep(batch))
		h.EndStep()
	}
}

// fireStep fires one step: inline while the gate stays shut, the rest
// across the pool once it opens.
func (e *Loop) fireStep(h Host, live []*tuple.Tuple) {
	e.h, e.live = h, live
	lo := e.inline(len(live))
	if rest := len(live) - lo; rest > 0 {
		grain := ChunkGrain(rest, e.pool.Size())
		if rest <= grain {
			h.FireBatch(live[lo:], 0) // a lone chunk gains nothing from the round trip
		} else {
			h.FanOut()
			e.lo, e.grain = lo, grain
			e.pool.ForWorker((rest+grain-1)/grain, 1, e.body, e.done)
		}
	}
	e.h, e.live = nil, nil // pin nothing across a quiescence
}

// inline fires the step's leading tuples on the coordinator and returns how
// many: all n without a pool, none when the gate is forced open, and under
// the measured gate doubling chunks from probeChunk until the clock says
// the rest is worth a fan-out — which a step of at most probeChunk tuples
// can never show, so it skips the clock altogether.
func (e *Loop) inline(n int) int {
	switch {
	case e.pool == nil || (!e.open && n <= probeChunk):
		if n > 0 {
			e.h.FireBatch(e.live, 0)
		}
		return n
	case e.open:
		return 0
	}
	start, lo := e.h.Now(), 0
	for chunk := probeChunk; lo < n; chunk *= 2 {
		hi := min(lo+chunk, n)
		e.h.FireBatch(e.live[lo:hi], 0)
		lo = hi
		if lo < n && shouldFanOut(lo, e.h.Now()-start, n-lo) {
			break
		}
	}
	return lo
}

// fireChunk is the fan-out body: chunk i of the tuples the gate left.
func (e *Loop) fireChunk(slot, i int) {
	lo := e.lo + i*e.grain
	e.h.FireBatch(e.live[lo:min(lo+e.grain, len(e.live))], slot)
}

// sealSlot is the fan-out epilogue: a participant that finds the chunk
// cursor dry sorts its own put run, so sealing shares the fire barrier.
func (e *Loop) sealSlot(slot int) { e.h.SealSlot(slot) }
