// Package exec is the execution layer of the JStar engine: it owns the step
// loop that repeatedly extracts the minimal causal equivalence class from
// the Delta set and fires the triggered rules, and it decides *where* those
// firings run.
//
// The paper's thesis is that parallelisation is the runtime's choice, not a
// program change (§1, §5). There is one step loop (stepLoop), and the choice
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
// Pipelined — a persistent crew of consumers fed through a Disruptor ring
// (the §6.3 PvWatts redesign, generalised) — stays selectable by name as
// the paper's artefact; nothing chooses it.
//
// # The batch-first Host contract
//
// All strategies execute against the Host interface, and dispatch is
// batch-first on both sides of a firing:
//
//   - Writes: rule firings append new tuples to per-worker put buffers
//     (identified by the slot index passed to FireBatch). At the step
//     boundary each buffer is sealed — sorted and handed off as one
//     pre-sorted run (SealSlot, called from the workers so the sorting
//     parallelises) — and the coordinator k-way merges the runs into the
//     Delta tree (EndStep). No firing ever takes the Delta-tree lock.
//   - Dispatch: a strategy never hands tuples to the engine one at a time.
//     It partitions each step's live batch into contiguous chunks — the
//     coordinator's doubling inline chunks, grain-sized chunks claimed by
//     pool workers, ring segments for Pipelined — and passes each whole
//     chunk to one FireBatch call. The
//     engine amortises rule lookup, statistics accounting and rule-context
//     setup over the chunk, and rules that provide a batch body (see
//     core.Rule.BatchBody) receive the chunk in a single invocation. This
//     is the Disruptor discipline of always consuming the full available
//     batch, applied to rule dispatch.
//
// Within one step the firing order of chunks (and of tuples inside a
// chunk) is unspecified, exactly as the paper specifies for one parallel
// batch; only the causal step boundaries order execution.
package exec

import (
	"fmt"
	"runtime"
	"strings"

	"github.com/jstar-lang/jstar/internal/disruptor"
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
	// Pipelined streams firings through a Disruptor ring to a persistent
	// consumer crew.
	Pipelined
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
	case Pipelined:
		return "pipelined"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// StrategyNames lists the canonical -strategy flag spellings, in menu
// order. Command-line tools use it to build usage strings and rejection
// messages, so the legal set lives in exactly one place.
func StrategyNames() []string {
	return []string{"auto", "sequential", "forkjoin", "pipelined"}
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
	case "pipelined", "pipeline", "disruptor":
		return Pipelined, nil
	}
	return Auto, fmt.Errorf("jstar: unknown strategy %q (valid: %s)", s, strings.Join(StrategyNames(), "|"))
}

// Host is the engine surface an Executor drives; implemented by core.Run.
// The contract is batch-first: NextBatch/BeginStep/Now/FanOut/EndStep are
// called by the executor's coordinator goroutine only; FireBatch may be
// called from many goroutines concurrently, each with a distinct slot (0 is
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
	// than the executor's own, so a test that fakes the one fakes the other.
	Now() int64
	// FanOut notes that the current step's firings are leaving the
	// coordinator for the workers (RunStats.FannedSteps).
	FanOut()
	// SealSlot sorts slot's put buffer and hands it off as one pre-sorted
	// run for the step's flush merge. Strategies call it from each worker
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

// AffineHost is the optional Host extension for table-affine execution
// (core.Options.TableAffinity). When Affine() reports true the host has
// pre-partitioned the current step's live batch into Tasks() fire tasks,
// each covering tuples owned by a single Gamma shard; TaskRoute(i) names
// that shard. Strategies then dispatch whole tasks instead of cutting
// their own chunks, steering each task toward the worker pinned to its
// shard: the step loop hands the pool the tasks in plan order, which groups
// a shard's tasks contiguously so range claiming tends to keep a shard on
// one worker (best-effort); Pipelined claims events by route instead of
// sequence residue (deterministic pinning). Correctness never depends on
// the steering: the host buffers puts per (slot, shard), so any worker may
// fire any task.
type AffineHost interface {
	Host
	// Affine reports whether the current step was planned table-affine.
	// Hosts may decline per step (tiny batches are not worth routing).
	Affine() bool
	// Tasks returns the number of fire tasks in the current step's plan.
	Tasks() int
	// FireTask fires task i, buffering puts under slot.
	FireTask(i, slot int)
	// TaskRoute returns the owner shard of task i's tuples.
	TaskRoute(i int) int
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

// Executor runs a program's step loop to quiescence. Drain is resumable:
// it may be called any number of times on the same executor, and the host
// may grow the Delta set between (and during) calls — the Session
// coordinator re-enters Drain after every batch of externally injected
// tuples, and its host absorbs the ingress ring inside NextBatch, so an
// executor must never assume seed-then-drain-once. Close releases executor
// resources once no more Drains will follow.
type Executor interface {
	// Name identifies the strategy for run reports.
	Name() string
	// Drain runs execution steps until the Delta set is empty or the run
	// fails.
	Drain(h Host) error
	// Close releases executor-owned resources (consumer goroutines, rings).
	Close()
}

// Config carries the shared knobs for building executors.
type Config struct {
	// Threads is the Pipelined consumer count. Defaults to Pool.Size() when
	// a pool is present.
	Threads int
	// Pool is the fork/join pool Auto and ForkJoin fan out on. May be nil
	// for Sequential and Pipelined; Auto without one never fans out.
	Pool Pool
	// RingSize is the Pipelined ring capacity (power of two, default 4096).
	RingSize int
	// ClaimBatch is the Pipelined producer claim batch (default 256).
	ClaimBatch int
	// Wait is the Pipelined wait strategy (default BlockingWait).
	Wait disruptor.WaitStrategy
}

func (c Config) threads() int {
	if c.Threads > 0 {
		return c.Threads
	}
	if c.Pool != nil {
		return c.Pool.Size()
	}
	return 1
}

// New builds an executor for the strategy. ForkJoin requires cfg.Pool.
func New(s Strategy, cfg Config) (Executor, error) {
	switch s {
	case Sequential:
		return newStepLoop("sequential", nil, false), nil
	case ForkJoin:
		if cfg.Pool == nil {
			return nil, fmt.Errorf("jstar: ForkJoin strategy requires a pool")
		}
		return newStepLoop("forkjoin", cfg.Pool, true), nil
	case Pipelined:
		return newPipelined(cfg), nil
	case Auto:
		pool := cfg.Pool
		if runtime.GOMAXPROCS(0) < 2 {
			pool = nil // no second processor: a fan-out can only cost
		}
		return newStepLoop("auto", pool, false), nil
	}
	return nil, fmt.Errorf("jstar: unknown strategy %v", s)
}

// ChunkGrain returns the chunk size a fan-out uses to partition n live
// tuples across `workers` participants: about four chunks per worker, so
// the pool (and the ring crew) can rebalance skewed chunks, while each
// FireBatch call still amortises dispatch over many tuples.
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

// drain is the step loop every strategy shares: extract the minimal class,
// move it into Gamma, fire it, flush the puts. Only fire differs.
func drain(h Host, fire func(h Host, live []*tuple.Tuple)) error {
	for {
		batch, err := h.NextBatch()
		if err != nil {
			return err
		}
		if batch == nil {
			return h.Err()
		}
		fire(h, h.BeginStep(batch))
		h.EndStep()
	}
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

// stepLoop is the executor behind Auto, Sequential and ForkJoin: one loop,
// parameterised by a pool and a gate.
type stepLoop struct {
	name string
	pool Pool // nil: every step fires on the coordinator
	open bool // gate forced open: fan out without measuring

	// The step being fired: its units are the tuples of live or, when the
	// host planned it table-affine, ah's tasks. A fan-out covers units
	// [lo, n) in grain-sized chunks. Written by the coordinator before the
	// pool's barrier, read by the participants inside it.
	h            Host
	ah           AffineHost
	live         []*tuple.Tuple
	lo, n, grain int
	// fireChunk and sealSlot bound once, so a step allocates no closure.
	body func(slot, i int)
	done func(slot int)
}

func newStepLoop(name string, pool Pool, open bool) *stepLoop {
	e := &stepLoop{name: name, pool: pool, open: open}
	e.body, e.done = e.fireChunk, e.sealSlot
	return e
}

func (e *stepLoop) Name() string       { return e.name }
func (e *stepLoop) Close()             {}
func (e *stepLoop) Drain(h Host) error { return drain(h, e.fireStep) }

// fireStep fires one step: inline while the gate stays shut, the rest
// across the pool once it opens.
func (e *stepLoop) fireStep(h Host, live []*tuple.Tuple) {
	e.h, e.live, e.ah = h, live, nil
	n, first := len(live), probeChunk
	if ah, ok := h.(AffineHost); ok && ah.Affine() {
		// Table-affine step: the host pre-partitioned live into shard-owned,
		// already grain-sized tasks; they are the units, probed one at a time.
		e.ah, n, first = ah, ah.Tasks(), 1
	}
	lo := e.inline(n, first)
	if rest := n - lo; rest > 0 {
		grain := 1
		if e.ah == nil {
			grain = ChunkGrain(rest, e.pool.Size())
		}
		if rest <= grain {
			e.fire(lo, n, 0) // a lone chunk gains nothing from the round trip
		} else {
			h.FanOut()
			e.lo, e.n, e.grain = lo, n, grain
			e.pool.ForWorker((rest+grain-1)/grain, 1, e.body, e.done)
		}
	}
	e.h, e.live, e.ah = nil, nil, nil // pin nothing across a quiescence
}

// inline fires the step's leading units on the coordinator and returns how
// many: all n without a pool, none when the gate is forced open, and under
// the measured gate doubling chunks from `first` until the clock says the
// rest is worth a fan-out — which a step of at most `first` units can never
// show, so it skips the clock altogether.
func (e *stepLoop) inline(n, first int) int {
	switch {
	case e.pool == nil || (!e.open && n <= first):
		e.fire(0, n, 0)
		return n
	case e.open:
		return 0
	}
	start, lo := e.h.Now(), 0
	for chunk := first; lo < n; chunk *= 2 {
		hi := min(lo+chunk, n)
		e.fire(lo, hi, 0)
		lo = hi
		if lo < n && shouldFanOut(lo, e.h.Now()-start, n-lo) {
			break
		}
	}
	return lo
}

// fire fires units [lo, hi) of the current step under slot.
func (e *stepLoop) fire(lo, hi, slot int) {
	switch {
	case lo >= hi:
	case e.ah != nil:
		for i := lo; i < hi; i++ {
			e.ah.FireTask(i, slot)
		}
	default:
		e.h.FireBatch(e.live[lo:hi], slot)
	}
}

// fireChunk is the fan-out body: chunk i of the units the gate left.
func (e *stepLoop) fireChunk(slot, i int) {
	lo := e.lo + i*e.grain
	e.fire(lo, min(lo+e.grain, e.n), slot)
}

// sealSlot is the fan-out epilogue: a participant that finds the chunk
// cursor dry sorts its own put run, so sealing shares the fire barrier.
func (e *stepLoop) sealSlot(slot int) { e.h.SealSlot(slot) }
