package core

import (
	"context"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/jstar-lang/jstar/internal/delta"
	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/forkjoin"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/order"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// TableStats are per-table usage statistics recorded during a run — the
// logging system of §1.5, used as the basis for choosing parallelisation
// strategies. A firing does not write a run's TableStats: it counts in its
// put slot's ledger (see putSlot), and endStep folds every slot in on the
// coordinator once the step's firings are quiesced, so the counters are
// exact at every step boundary — in particular whenever a session is
// quiesced — and workers never share a counter's cache line. Puts is the
// sum of the table's (rule, table) cells, Triggers the firings of the
// rules it triggers. The boundary's duplicates and Session.Query's queries
// are counted here directly, by the coordinator.
type TableStats struct {
	Puts       atomic.Int64 // tuples put (before dedup)
	Duplicates atomic.Int64 // puts discarded as duplicates
	Triggers   atomic.Int64 // rule firings triggered by this table
	Queries    atomic.Int64 // Gamma queries against this table
	// IndexedQueries counts the queries with a non-empty equality prefix,
	// PrefixLenSum totals those prefixes' lengths, and MinPrefixLen holds
	// the shortest one observed (0 before any). Together with Queries they
	// tell the store planner whether a table is point-probed (and at what
	// prefix depth) or only scanned — the query-shape half of the §1.5
	// statistics that PlanFromStats turns into a StorePlan. The planner
	// keys hash backends at MinPrefixLen, never deeper: a key depth any
	// observed query under-specifies would degrade that query to a scan.
	IndexedQueries atomic.Int64
	PrefixLenSum   atomic.Int64
	MinPrefixLen   atomic.Int64
	_              uint64 // one cache line: a put slot keeps one per table
}

// noteQuery counts one query whose equality prefix holds n values.
func (t *TableStats) noteQuery(n int) {
	t.Queries.Add(1)
	if n > 0 {
		t.IndexedQueries.Add(1)
		t.PrefixLenSum.Add(int64(n))
		casMin(&t.MinPrefixLen, int64(n))
	}
}

// foldInto adds a put slot's duplicates and queries c to t and zeroes
// them. Coordinator only, with the slot's firings quiesced.
func (c *TableStats) foldInto(t *TableStats) {
	if d := c.Duplicates.Load(); d != 0 {
		t.Duplicates.Add(d)
		c.Duplicates.Store(0)
	}
	if q := c.Queries.Load(); q != 0 {
		t.Queries.Add(q)
		c.Queries.Store(0)
	}
	if n := c.IndexedQueries.Load(); n != 0 {
		t.IndexedQueries.Add(n)
		t.PrefixLenSum.Add(c.PrefixLenSum.Load())
		casMin(&t.MinPrefixLen, c.MinPrefixLen.Load())
		c.IndexedQueries.Store(0)
		c.PrefixLenSum.Store(0)
		c.MinPrefixLen.Store(0)
	}
}

// ruleCounts is one put slot's share of one rule's firings and body
// nanoseconds; for a rule fired inline, of its sampled firings'. It fills
// one cache line.
type ruleCounts struct {
	fired, nanos atomic.Int64
	_            [6]uint64
}

// inlineSample is the share of inline (-noDelta) firings whose body time
// is measured: one in inlineSample per rule and slot, scaled up at the
// fold. A step-path group reads the clock once for all its firings.
const inlineSample = 16

func casMin(a *atomic.Int64, min int64) {
	for {
		cur := a.Load()
		if cur != 0 && cur <= min {
			return
		}
		if a.CompareAndSwap(cur, min) {
			return
		}
	}
}

// RunStats aggregates statistics across a run. The counters a firing
// writes — TotalFired, FireBatches, RuleNanos, FlowEdges and the tables'
// Puts, Duplicates, Triggers and Queries — come from the put slots'
// ledgers, which endStep folds in on the coordinator: they are exact at
// every step boundary, and always on.
type RunStats struct {
	Steps      int64 // execution steps (minimum-batch extractions)
	MaxBatch   int   // largest parallel batch
	TotalLive  int64 // live (non-duplicate) tuples entering step batches
	TotalFired int64 // total rule firings
	Elapsed    time.Duration
	Tables     map[string]*TableStats
	// RuleNanos is each rule's cumulative body time, nested firings
	// included. It is exact for rules fired on the step path, which time
	// each group of firings with one clock pair; for a rule fired inline
	// (its trigger table is -noDelta) it is an estimate, scaled up from
	// one sampled firing in inlineSample.
	RuleNanos map[string]*atomic.Int64

	// FannedSteps counts the Steps whose firings left the coordinator for
	// the workers — what the executor decided, step by step. Written only
	// by the coordinator, like Steps.
	FannedSteps int64

	// StoreKinds records the store backend backing each table — a
	// replayable gamma kind spec ("tree", "hash:2", "dense3d:3,96,96",
	// "custom" for opaque factories). Set once when the run is built: a
	// table keeps its store for the whole run. It is the "kind" column of
	// cmd/jstar -stats and the planner's view of which choices it may
	// override.
	StoreKinds map[string]string
	// schemas and noGamma carry the planner's non-counter inputs (column
	// kinds for backend suitability; tables whose stores are never used).
	schemas map[string]*tuple.Schema
	noGamma map[string]bool

	// Per-phase step breakdown, in coordinator wall-clock nanoseconds:
	// InsertNanos covers BeginStep (batch sort, Gamma inserts, external
	// actions), FireNanos the rule dispatch between BeginStep and EndStep,
	// MergeNanos the EndStep seal-and-merge of the per-slot put runs, and
	// DeltaNanos the Delta-tree bulk load. Fire runs parallel under the
	// parallel strategies; the other three are the step boundary — the
	// serial fraction that Amdahl-caps every scaling direction, which is
	// why the boundary sorts at the source and merges instead of
	// re-sorting. Recorded only under Options.PhaseStats (a few clock
	// reads per step are visible on step-dominated programs); written only
	// by the coordinator — read them at quiescence like Steps/Elapsed.
	InsertNanos int64
	FireNanos   int64
	MergeNanos  int64
	DeltaNanos  int64

	// TableVersions is the per-table quiesced-change generation: the
	// counter for table T is incremented at a quiescent boundary when T's
	// Gamma contents changed since the previous quiescent boundary (any
	// step of the interval inserted a live tuple — tracked by the
	// engine's per-table step-dirty bitset, so idle tables cost nothing).
	// It is the notification source of the serve layer's query
	// subscriptions: a subscriber remembers the generation it last saw
	// and is woken when the counter passes it (Session.WaitChange).
	// Written only by the coordinator, but atomic so subscribers may read
	// it at any time. -noGamma tables have no Gamma state and stay at 0.
	TableVersions map[string]*atomic.Int64

	// ShardAbsorbed has one element for a session: the external tuples its
	// coordinator absorbed, which Quiesce's watermark is compared with (nil
	// for a run that never backed a session). Written only by the
	// coordinator; read it at quiescence.
	ShardAbsorbed []int64

	// FireBatches counts batched dispatch calls (FireBatch chunks); with
	// TotalLive it gives the mean chunk size the executor achieved —
	// the dispatch-amortisation analogue of TotalLive/Steps, and the
	// store-auto-tuning input recorded per the §1.5 logging loop.
	FireBatches atomic.Int64

	// flow is the folded dataflow ledger: tuples put, by rule ID (the
	// registered rules, then the pseudoRules) times table count plus
	// table ID; fired holds the registered rules' firings. ruleNames and
	// tableNames name their rows and columns.
	flow, fired           []atomic.Int64
	ruleNames, tableNames []string
}

// RuleFirings returns each rule's firings. They sum to TotalFired, and a
// table's Triggers are the firings of the rules it triggers.
func (s *RunStats) RuleFirings() map[string]int64 {
	out := make(map[string]int64, len(s.fired))
	for id := range s.fired {
		out[s.ruleNames[id]] += s.fired[id].Load()
	}
	return out
}

// FlowEdges returns the observed dataflow: the tuples each rule put into
// each table, keyed {rule, table} — the log the §1.5 visualiser renders
// as an annotated dependency graph. Puts no rule made are keyed by a
// pseudo-rule: "put" for the initial puts, "event" for a session's
// external tuples, replayed ones included. Every put counts, dropped
// repeats and duplicates too, so a table's edges sum to its Puts.
func (s *RunStats) FlowEdges() map[[2]string]int64 {
	out := make(map[[2]string]int64)
	nt := len(s.tableNames)
	for c := range s.flow {
		if n := s.flow[c].Load(); n != 0 {
			out[[2]string{s.ruleNames[c/nt], s.tableNames[c%nt]}] += n
		}
	}
	return out
}

// MeanFireChunk returns the mean tuples per FireBatch dispatch — how well
// the executor amortised per-tuple overhead. 0 before any dispatch.
func (s *RunStats) MeanFireChunk() float64 {
	b := s.FireBatches.Load()
	if b == 0 {
		return 0
	}
	return float64(s.TotalLive) / float64(b)
}

// BoundaryNanos returns the coordinator time spent inside step boundaries
// (everything but rule dispatch): BeginStep's sort+insert, the flush
// merge, and the Delta-tree load.
func (s *RunStats) BoundaryNanos() int64 {
	return s.InsertNanos + s.MergeNanos + s.DeltaNanos
}

// SerialBoundaryFraction returns the step boundary's share of the step
// loop (boundary / (boundary + fire)), 0 before any step. It is the
// Amdahl serial fraction of the execution loop: with 0.5, no strategy can
// beat 2x however many workers fire rules. The CI smoke gate watches it.
func (s *RunStats) SerialBoundaryFraction() float64 {
	b, f := s.BoundaryNanos(), s.FireNanos
	if b+f == 0 {
		return 0
	}
	return float64(b) / float64(b+f)
}

// putSlot is one participant's put buffer. Rule firings on slot i append
// here; at the step boundary the slot is *sealed* — its buffer sorted by
// tuple.ComparePath and handed off as one pre-sorted run — and the
// coordinator k-way merges the sealed runs into the Delta tree. A
// fanned-out step seals from the workers themselves (exec.Host.SealSlot),
// so the sort is the one part of the flush that runs in parallel; EndStep
// seals whatever the step loop did not, then merges and loads the tree
// serially on the coordinator. No firing ever touches the Delta tree. The
// mutex is uncontended in the common case (one goroutine per slot per
// step); it exists because a rule may fan its own body out across the pool
// (§5.2 "additional parallelism"), making several workers share the firing
// rule's slot.
//
// A slot also keeps the ledger of its firings, which endStep folds into
// RunStats: per table their dropped repeats and queries, per rule their
// firings and body time, per (rule, table) cell their puts, and the chunks
// fired. The counters are atomic because the firing rule's pool.For
// helpers, and the -noDelta firings they run inline, share the slot; they
// are one firing's, so the adds are uncontended. The struct is two cache
// lines, and its ledger is allocated in whole lines, so two slots never
// share one.
type putSlot struct {
	mu      sync.Mutex
	buf     []*tuple.Tuple
	counts  []TableStats   // by schema ID: Duplicates and the query counts
	rules   []ruleCounts   // by rule ID
	puts    []atomic.Int64 // by rule ID × table count + schema ID
	batches atomic.Int64   // exec.Host.FireBatch chunks
	_       [2]uint64      // keep adjacent slots off one cache line
}

// sealedRun is one slot's sorted put run awaiting the step-boundary merge.
// The slot index rides along so the (capacity-retaining) buffer returns to
// its owner after the merge — buffers cycle fill → seal → merge → return,
// cleared of stale tuple pointers before reuse so a grown buffer never
// pins dead tuples across steps.
type sealedRun struct {
	slot int
	ts   []*tuple.Tuple
}

// prefixBuckets is the number of coarse key-prefix change buckets tracked
// per table for filtered query subscriptions — sized to one dirty-mask
// word, so accumulating a step's buckets is a single atomic Or.
const prefixBuckets = 64

// prefixGens holds one table's per-bucket quiesced-change generations.
type prefixGens [prefixBuckets]atomic.Int64

// PrefixBucket returns the change-tracking bucket of a leading key value —
// the bucket a prefix-filtered subscriber watches and an insert dirties.
func PrefixBucket(v tuple.Value) int {
	return int(v.Hash(tuple.HashSeed) % prefixBuckets)
}

// Run is one execution of a Program under a set of Options.
type Run struct {
	prog *Program
	opts Options

	delta   *delta.Tree
	gammaDB *gamma.DB
	// pool is what the run fans out on — a step's firings (through loop) and
	// the per-worker seal sort, nothing else: the step boundary's Gamma
	// insert, merge and Delta load stay on the coordinator. It is nil unless
	// the run has a pool of more than one worker, and that one fact decides
	// everything else that exists only for parallelism: concurrent Gamma
	// stores and more than one put slot.
	pool    PoolRef
	ownPool *forkjoin.Pool
	loop    *exec.Loop
	threads int
	// now is the monotonic clock the step loop times a step's firings with
	// (exec.Host.Now); in-package tests replace it to drive the fan-out
	// gate without sleeping.
	now func() int64

	slots    []putSlot
	slotCtx  []Ctx            // per-slot reusable rule contexts for fireChunk
	inline   sync.Pool        // *inlineCtx: reusable contexts for fireInline
	flushBuf []*tuple.Tuple   // coordinator-only merge scratch for endStep
	runsBuf  [][]*tuple.Tuple // coordinator-only scratch for endStep's merge input

	// prefixTrack gates per-table key-prefix change tracking (filtered
	// query subscriptions); until the first filtered subscriber arms it,
	// the insert paths pay a single relaxed load. prefixDirty accumulates
	// each table's dirtied buckets between quiescent boundaries; foldDirty
	// drains it into prefixVerByID's per-bucket generations.
	prefixTrack   atomic.Bool
	prefixDirty   []atomic.Uint64
	prefixVerByID []prefixGens

	// sealed collects the step's sorted per-slot runs (SealSlot). The
	// mutex orders concurrent worker seals; the coordinator drains the
	// list inside endStep, after the executor has quiesced the step.
	sealMu sync.Mutex
	sealed []sealedRun
	// dupFn is the shared duplicate-accounting callback of the flush path
	// (merge dedup reports through it, and so does the Delta tree, whose
	// OnDuplicate it is — on arrival or when a leaf's runs merge at drain),
	// built once so the per-step flush allocates no closures.
	dupFn func(*tuple.Tuple)
	// phaseClock enables the per-phase step timing (Options.PhaseStats);
	// fireStart is the coordinator timestamp of the last BeginStep return,
	// zero outside a step; endStep turns it into RunStats.FireNanos.
	phaseClock bool
	fireStart  time.Time

	// Dense per-schema-ID tables replacing map lookups on the hot path.
	noDelta   []bool
	noGamma   []bool
	hasAction []bool
	statsByID []*TableStats
	rulesByID [][]*Rule

	// dirtyByID is the per-table step-dirty bitset: flag i is set when a
	// live tuple of schema i entered Gamma since the last quiescent
	// boundary (beginStep's serial insert; the -noDelta inline insert
	// path). foldDirty swaps the flags out at quiescence and bumps the
	// matching TableVersions generations — the Delta-side change tracking
	// behind query subscriptions. Atomic because -noDelta inserts run on
	// worker goroutines; a plain Store suffices (no read-modify-write).
	dirtyByID []atomic.Bool
	// versionByID aliases stats.TableVersions by dense schema ID.
	versionByID []*atomic.Int64

	out     outputBuffer
	stats   RunStats
	failMu  chan struct{} // buffered(1); first rule panic wins
	fail    atomic.Value  // error
	started atomic.Bool   // a run executes (or backs a Session) at most once
}

// NewRun prepares (but does not start) a run.
func (p *Program) NewRun(opts Options) (*Run, error) {
	if err := p.Validate(opts); err != nil {
		return nil, err
	}
	r := &Run{
		prog:   p,
		opts:   opts,
		failMu: make(chan struct{}, 1),
	}
	base := time.Now()
	r.now = func() int64 { return int64(time.Since(base)) }
	r.out.quiet = opts.Quiet

	// Can this run fan out? Only over a pool of more than one worker — the
	// caller's, or one of its own sized by Threads (GOMAXPROCS by default) —
	// and never under Sequential. A run that cannot keeps r.pool nil and
	// starts no goroutine but its coordinator.
	r.threads = 1
	switch {
	case opts.Strategy == exec.Sequential:
	case opts.Pool != nil:
		if opts.Pool.Size() > 1 {
			r.pool = opts.Pool
		}
	case opts.threads() > 1:
		r.ownPool = forkjoin.NewPool(opts.threads())
		r.pool = r.ownPool
	}
	if r.pool != nil {
		r.threads = r.pool.Size()
	}
	loop, err := exec.New(opts.Strategy, r.pool)
	if err != nil {
		return nil, err
	}
	r.loop = loop

	// The Delta tree has one writer, the coordinator: endStep loads each
	// step's merged flush with one serial PutSorted, and no rule firing
	// touches the tree.
	r.delta = delta.NewSequential(p.po)
	// Every table defaults to the tree store, pool or no pool: its one lock
	// costs less than a concurrent structure's per-insert synchronisation,
	// and the step boundary inserts each table's tuples as one locked run.
	// Store selection is layered, lowest priority first: the compiler's
	// static plan hints, then programmatic GammaHint factories, then the
	// per-run Options.StorePlan (the profile-guided replay). Specs were
	// already vetted by Validate, so FactoryFor cannot fail here. The
	// resolved plan builds the per-run dense store table once: Table
	// lookups during execution are a bounds check and pointer compare, no
	// lock.
	stores := make(map[string]gamma.StoreFactory)
	resolve := func(plan gamma.StorePlan) {
		for t, spec := range plan {
			if f, err := gamma.FactoryFor(spec, p.tables[t]); err == nil {
				stores[t] = f
			}
		}
	}
	resolve(p.planHints)
	maps.Copy(stores, p.hints)
	resolve(opts.StorePlan)
	r.gammaDB = gamma.NewDB(p.byID, stores)

	n := len(p.byID)
	r.noDelta = make([]bool, n)
	r.noGamma = make([]bool, n)
	r.hasAction = make([]bool, n)
	r.statsByID = make([]*TableStats, n)
	r.rulesByID = make([][]*Rule, n)
	for _, t := range opts.NoDelta {
		r.noDelta[p.tables[t].ID()] = true
	}
	for _, t := range opts.NoGamma {
		r.noGamma[p.tables[t].ID()] = true
	}
	r.dirtyByID = make([]atomic.Bool, n)
	r.versionByID = make([]*atomic.Int64, n)
	r.prefixDirty = make([]atomic.Uint64, n)
	r.prefixVerByID = make([]prefixGens, n)
	r.stats.TableVersions = make(map[string]*atomic.Int64, n)
	r.stats.Tables = make(map[string]*TableStats, n)
	r.stats.StoreKinds = make(map[string]string, n)
	r.stats.schemas = make(map[string]*tuple.Schema, n)
	r.stats.noGamma = make(map[string]bool, len(opts.NoGamma))
	r.stats.tableNames = make([]string, n)
	for _, s := range p.byID {
		r.stats.tableNames[s.ID()] = s.Name
		st := &TableStats{}
		r.stats.Tables[s.Name] = st
		r.statsByID[s.ID()] = st
		r.rulesByID[s.ID()] = p.trigger[s]
		if _, ok := p.actions[s]; ok {
			r.hasAction[s.ID()] = true
		}
		r.stats.StoreKinds[s.Name] = gamma.KindOf(r.gammaDB.Table(s))
		r.stats.schemas[s.Name] = s
		v := &atomic.Int64{}
		r.stats.TableVersions[s.Name] = v
		r.versionByID[s.ID()] = v
		if r.noGamma[s.ID()] {
			r.stats.noGamma[s.Name] = true
		}
	}
	// Rules that share a name share their RuleNanos and FlowEdges entries.
	r.stats.RuleNanos = make(map[string]*atomic.Int64, len(p.rules))
	for _, rule := range p.rules {
		if _, dup := r.stats.RuleNanos[rule.Name]; !dup {
			r.stats.RuleNanos[rule.Name] = &atomic.Int64{}
		}
		r.stats.ruleNames = append(r.stats.ruleNames, rule.Name)
	}
	r.stats.ruleNames = append(r.stats.ruleNames, pseudoRules[:]...)
	cells := len(r.stats.ruleNames) * n
	r.stats.flow = make([]atomic.Int64, cells)
	r.stats.fired = make([]atomic.Int64, len(p.rules))

	// One put buffer per participant: the coordinator (slot 0) and each pool
	// worker — a lone slot when the run cannot fan out.
	slots := 1
	if r.pool != nil {
		slots += r.threads
	}
	r.slots = make([]putSlot, slots)
	for i := range r.slots {
		sl := &r.slots[i]
		sl.counts = make([]TableStats, n)
		sl.rules = make([]ruleCounts, len(p.rules))
		sl.puts = make([]atomic.Int64, (cells+7)&^7) // whole cache lines
	}
	// One reusable Ctx per slot: the batched firing path re-points its
	// rule/trigger fields per group instead of allocating a Ctx per firing.
	r.slotCtx = make([]Ctx, slots)
	for i := range r.slotCtx {
		r.slotCtx[i] = Ctx{run: r, slot: i}
	}
	r.sealed = make([]sealedRun, 0, len(r.slots))
	r.phaseClock = opts.PhaseStats
	r.dupFn = func(t *tuple.Tuple) {
		r.statsByID[t.Schema().ID()].Duplicates.Add(1)
	}
	r.delta.OnDuplicate = r.dupFn
	return r, nil
}

// Execute runs the program to completion (empty Delta set) and returns the
// first rule panic as an error, or a step-limit error. It is a thin
// compatibility wrapper over the Session lifecycle: start, wait for
// quiescence, close.
func (r *Run) Execute() error {
	s, err := r.startSession(context.Background())
	if err != nil {
		return err
	}
	qErr := s.Quiesce(context.Background())
	cErr := s.Close()
	if qErr != nil {
		return qErr
	}
	return cErr
}

func (r *Run) finish(start time.Time) {
	r.stats.Elapsed = time.Since(start)
	if r.ownPool != nil {
		r.ownPool.Shutdown()
	}
}

func (r *Run) loadFail() error {
	if e := r.fail.Load(); e != nil {
		return e.(error)
	}
	return nil
}

func (r *Run) setFail(err error) {
	select {
	case r.failMu <- struct{}{}:
		r.fail.Store(err)
	default: // a failure is already recorded; first one wins
	}
}

// nextBatch extracts the next minimal causal equivalence class, doing the
// step accounting and limit checks. nil with nil error means drained.
func (r *Run) nextBatch() ([]*tuple.Tuple, error) {
	for {
		if err := r.loadFail(); err != nil {
			return nil, err
		}
		if r.delta.Empty() {
			return nil, nil
		}
		if r.opts.MaxSteps > 0 && r.stats.Steps >= r.opts.MaxSteps {
			return nil, fmt.Errorf("jstar: run aborted after %d steps (MaxSteps); program may not terminate", r.stats.Steps)
		}
		batch := r.delta.TakeMinBatch()
		if len(batch) == 0 {
			continue
		}
		r.stats.Steps++
		if len(batch) > r.stats.MaxBatch {
			r.stats.MaxBatch = len(batch)
		}
		return batch, nil
	}
}

// beginStep moves one causal equivalence class into Gamma — batch-wise, one
// store synchronisation episode per table run — and performs external
// actions. It returns the live (non-duplicate) tuples whose rules fire.
func (r *Run) beginStep(batch []*tuple.Tuple) []*tuple.Tuple {
	var start time.Time
	if r.phaseClock {
		start = time.Now()
	}
	// Tuples within one equivalence class are unordered; the step order —
	// table, then fields — groups each store's insert run, hands ordered
	// backends an ascending run, and makes sequential firing order
	// deterministic. A class drained from one Delta leaf already is in that
	// order (the producing workers sorted it, the merges kept it), so one
	// linear check replaces the sort; what still sorts is a `par` subtree
	// drained across several leaves.
	if !slices.IsSortedFunc(batch, tuple.CompareSchemaFields) {
		slices.SortFunc(batch, tuple.CompareSchemaFields)
	}
	// Dedup-insert each schema group into its table's store, filtering the
	// live tuples in place: the write cursor never passes the read cursor,
	// so live keeps the sorted order.
	live := batch[:0]
	anyAction := false
	for i := 0; i < len(batch); {
		s := batch[i].Schema()
		id := s.ID()
		j := i + 1
		for j < len(batch) && batch[j].Schema() == s {
			j++
		}
		group := batch[i:j]
		i = j
		if r.hasAction[id] {
			anyAction = true
		}
		if r.noGamma[id] {
			live = append(live, group...)
			continue
		}
		// Positive queries may see tuples with timestamps <= the trigger's,
		// which includes batch-mates, so the whole batch lands in Gamma
		// before any rule fires. Duplicates were already processed in an
		// earlier step: set semantics say they are discarded and their
		// rules do not re-fire.
		kept := len(live)
		live = gamma.InsertBatch(r.gammaDB.Table(s), group, live)
		added := live[kept:]
		if len(added) > 0 {
			r.dirtyByID[id].Store(true)
			if r.prefixTrack.Load() && s.Arity() > 0 {
				var mask uint64
				for _, t := range added {
					mask |= 1 << PrefixBucket(t.Field(0))
				}
				r.prefixDirty[id].Or(mask)
			}
		}
		if dups := len(group) - len(added); dups > 0 {
			r.statsByID[id].Duplicates.Add(int64(dups))
		}
	}
	r.stats.TotalLive += int64(len(live))
	// External actions (paper §3) run on the coordinator, in deterministic
	// order within the batch, before the batch's rules fire. anyAction
	// keeps action-free steps from paying the scan.
	if anyAction {
		r.runActions(live)
	}
	if r.phaseClock {
		now := time.Now()
		r.stats.InsertNanos += now.Sub(start).Nanoseconds()
		r.fireStart = now
	}
	return live
}

// sealSlot takes slot's put buffer, sorts it by tuple.ComparePath, and
// queues it as a pre-sorted run for the step's merge. Safe to call
// concurrently for distinct slots — this is how a fanned-out step moves the
// flush sort off the coordinator — and a no-op for an empty slot, so
// sealing every slot defensively costs almost nothing.
func (r *Run) sealSlot(slot int) {
	sl := &r.slots[slot]
	sl.mu.Lock()
	buf := sl.buf
	if len(buf) == 0 {
		sl.mu.Unlock()
		return
	}
	sl.buf = nil
	sl.mu.Unlock()
	if len(buf) > 1 {
		slices.SortFunc(buf, tuple.ComparePath)
	}
	r.sealMu.Lock()
	r.sealed = append(r.sealed, sealedRun{slot: slot, ts: buf})
	r.sealMu.Unlock()
}

// endStep merges the step's sealed put runs into one sorted, deduplicated
// flush and bulk-loads it into the Delta tree. Called only by the
// coordinator with all firings quiesced; it seals any slot the step loop
// left unsealed (inline steps, lone-chunk fire paths, ingress absorbs), so
// SealSlot remains an optimisation rather than an obligation.
func (r *Run) endStep() {
	var mergeStart time.Time
	if r.phaseClock {
		mergeStart = time.Now()
		if !r.fireStart.IsZero() {
			r.stats.FireNanos += mergeStart.Sub(r.fireStart).Nanoseconds()
			r.fireStart = time.Time{}
		}
	}
	for i := range r.slots {
		r.sealSlot(i)
	}
	r.foldCounts()
	runs := r.sealed // workers are quiesced; drained under the lock below anyway
	var flush []*tuple.Tuple
	singleRun := len(runs) == 1
	if singleRun {
		// One run: dedup in place, feed it to the tree directly — the
		// common sequential shape pays no copy at all.
		flush = delta.DedupSorted(runs[0].ts, r.dupFn)
	} else if len(runs) > 1 {
		rs := r.runsBuf[:0]
		for i := range runs {
			rs = append(rs, runs[i].ts)
		}
		flush = delta.MergeRuns(rs, r.flushBuf[:0], r.dupFn)
		clear(rs)
		r.runsBuf = rs[:0]
	}
	var deltaStart time.Time
	if r.phaseClock {
		deltaStart = time.Now()
		r.stats.MergeNanos += deltaStart.Sub(mergeStart).Nanoseconds()
	}
	if len(flush) > 0 {
		r.delta.PutSorted(flush, nil)
	}
	// Recycle: hand each run's array back to its slot with stale tuple
	// pointers cleared, so buffers keep their grown capacity across steps
	// without pinning dead tuples; same for the merge scratch. Clearing
	// [:len] suffices: pointer-typed arrays are allocated zeroed and every
	// recycle re-zeroes the used prefix, so slots past len stay nil by
	// induction.
	r.sealMu.Lock()
	r.sealed = r.sealed[:0]
	r.sealMu.Unlock()
	for _, run := range runs {
		clear(run.ts)
		sl := &r.slots[run.slot]
		sl.mu.Lock()
		if sl.buf == nil {
			sl.buf = run.ts[:0]
		}
		sl.mu.Unlock()
	}
	if !singleRun && flush != nil {
		clear(flush)
		r.flushBuf = flush[:0]
	}
	// The recycle loop is serial coordinator work, so it counts toward the
	// boundary fraction the CI gate watches.
	if r.phaseClock {
		r.stats.DeltaNanos += time.Since(deltaStart).Nanoseconds()
	}
}

// foldCounts moves every slot's ledger into RunStats: the tables'
// TableStats, the dataflow cells, each rule's firings and body time, and
// the chunk count. Inline firings' sampled body time is scaled up by the
// firings it stands for. Coordinator only, with the step's firings
// quiesced (endStep).
func (r *Run) foldCounts() {
	nt := len(r.statsByID)
	for i := range r.slots {
		sl := &r.slots[i]
		for id := range sl.counts {
			sl.counts[id].foldInto(r.statsByID[id])
		}
		for c := range r.stats.flow {
			if p := sl.puts[c].Load(); p != 0 {
				sl.puts[c].Store(0)
				r.stats.flow[c].Add(p)
				r.statsByID[c%nt].Puts.Add(p)
			}
		}
		for id := range sl.rules {
			f := sl.rules[id].fired.Swap(0)
			if f == 0 {
				continue
			}
			ns := sl.rules[id].nanos.Swap(0)
			rule := r.prog.rules[id]
			if r.noDelta[rule.Trigger.ID()] {
				ns = int64(float64(ns) * float64(f) / float64((f+inlineSample-1)/inlineSample))
			}
			r.statsByID[rule.Trigger.ID()].Triggers.Add(f)
			r.stats.fired[id].Add(f)
			r.stats.RuleNanos[rule.Name].Add(ns)
			atomic.AddInt64(&r.stats.TotalFired, f)
		}
		if b := sl.batches.Swap(0); b != 0 {
			r.stats.FireBatches.Add(b)
		}
	}
}

// foldDirty drains the per-table step-dirty bitset accumulated since the
// previous quiescent boundary, bumping the change generation of every
// table whose Gamma contents changed, and reports whether any did. When
// prefix tracking is armed it also promotes each table's dirtied prefix
// buckets to the new generation (an interval with no bucket information —
// changes that predate arming, or that bypassed the instrumented insert
// paths — conservatively dirties every bucket, so a filtered subscriber
// can miss nothing). Called only by the session coordinator at a quiescent
// boundary (before waking Quiesce waiters, so a woken subscriber always
// observes the new generations).
func (r *Run) foldDirty() bool {
	any := false
	track := r.prefixTrack.Load()
	for i := range r.dirtyByID {
		if r.dirtyByID[i].Swap(false) {
			gen := r.versionByID[i].Add(1)
			any = true
			if track {
				mask := r.prefixDirty[i].Swap(0)
				if mask == 0 {
					mask = ^uint64(0)
				}
				for mask != 0 {
					b := bits.TrailingZeros64(mask)
					mask &= mask - 1
					r.prefixVerByID[i][b].Store(gen)
				}
			}
		}
	}
	return any
}

// runActions performs registered external actions for the batch's tuples.
// Tuples within one causal equivalence class are unordered, so actions sort
// them by field values for reproducible side-effect order.
func (r *Run) runActions(batch []*tuple.Tuple) {
	var acted []*tuple.Tuple
	for _, t := range batch {
		if r.hasAction[t.Schema().ID()] {
			acted = append(acted, t)
		}
	}
	if len(acted) == 0 {
		return
	}
	if len(acted) > 1 {
		sort.Slice(acted, func(i, j int) bool {
			if a, b := acted[i].Schema().Name, acted[j].Schema().Name; a != b {
				return a < b
			}
			return acted[i].CompareFields(acted[j]) < 0
		})
	}
	for _, t := range acted {
		r.prog.actions[t.Schema()](r, t)
	}
}

// fireChunk fires one chunk of a step's live batch on slot's reusable Ctx
// — exec.Host.FireBatch.
func (r *Run) fireChunk(ts []*tuple.Tuple, slot int) {
	if len(ts) == 0 {
		return
	}
	r.slots[slot].batches.Add(1)
	r.fireBatch(&r.slotCtx[slot], ts)
}

// fireBatch runs on ctx every rule triggered by each tuple of ts — the one
// firing path, for a chunk of a step's live batch (fireChunk) and for a
// -noDelta tuple fired the moment it enters Gamma (put). ts arrives sorted
// by schema (BeginStep's ordering), so it splits into schema-homogeneous
// groups, each of which pays its rule lookup once.
func (r *Run) fireBatch(ctx *Ctx, ts []*tuple.Tuple) {
	for i := 0; i < len(ts); {
		s := ts[i].Schema()
		j := i + 1
		for j < len(ts) && ts[j].Schema() == s {
			j++
		}
		group := ts[i:j]
		i = j
		for _, rule := range r.rulesByID[s.ID()] {
			r.invokeGroup(ctx, rule, group)
		}
	}
}

// invokeGroup fires one rule over a schema-homogeneous group of triggers,
// tuple by tuple, and counts the firings and their body time in the slot's
// ledger. A group reads the clock once around all its firings — except
// an inline -noDelta firing, a group of one, which reads it only if it is
// its rule's inlineSample-th on the slot. One recover guards the group: a
// rule panic fails the run, so finishing the group's remaining tuples
// would be wasted work.
func (r *Run) invokeGroup(ctx *Ctx, rule *Rule, ts []*tuple.Tuple) {
	rc := &r.slots[ctx.slot].rules[rule.id]
	n := rc.fired.Add(int64(len(ts)))
	timed := !r.noDelta[rule.Trigger.ID()] || (n-1)%inlineSample == 0
	defer func() {
		if p := recover(); p != nil {
			r.setFail(fmt.Errorf("jstar: rule %s on %v panicked: %v", rule.Name, ctx.trigger, p))
			ctx.popTo(0) // the panic unwound past the queries' own pops
		}
	}()
	ctx.rule = rule
	var start time.Time
	if timed {
		start = time.Now()
	}
	for _, t := range ts {
		ctx.trigger = t
		rule.Body(ctx, t)
	}
	if timed {
		rc.nanos.Add(int64(time.Since(start)))
	}
}

// inlineCtx is the Ctx of an inline -noDelta firing with the one-tuple
// group it fires.
type inlineCtx struct {
	Ctx
	group [1]*tuple.Tuple
}

// fireInline fires the rules of t, a -noDelta tuple just put, on slot. It
// needs a Ctx of its own, not the slot's: the put nests in a firing that
// is still using the slot's Ctx, and pool.For helpers share the slot. The
// Ctx and its group come from r.inline and go back with the trigger and
// the query scratch cleared, so a firing allocates neither.
func (r *Run) fireInline(t *tuple.Tuple, slot int) {
	ic, _ := r.inline.Get().(*inlineCtx)
	if ic == nil {
		ic = &inlineCtx{Ctx: Ctx{run: r}}
	}
	ic.slot = slot
	ic.group[0] = t
	r.fireBatch(&ic.Ctx, ic.group[:])
	ic.group[0], ic.rule, ic.trigger = nil, nil, nil
	ic.popTo(0)
	r.inline.Put(ic)
}

func (r *Run) tableStats(s *tuple.Schema) *TableStats {
	if id := int(s.ID()); id < len(r.statsByID) && r.prog.byID[id] == s {
		return r.statsByID[id]
	}
	return nil
}

// put implements the tuple creation path shared by initial puts and rule
// puts. rule is the producing rule's ID, or a pseudo-rule's; from is the
// trigger tuple of the producing rule, nil for the pseudo-rules' puts;
// slot identifies the put buffer of the executing participant. Under
// -noDelta the tuple goes straight to Gamma and fires its rules on the
// calling task; everything else is appended to the slot buffer and
// flushed into the Delta tree at the step boundary — unless it equals the
// buffer's tail, the slot's previous put this step: then it is a
// duplicate the boundary would drop, and it is dropped here.
func (r *Run) put(rule int, from *tuple.Tuple, t *tuple.Tuple, slot int) {
	s := t.Schema()
	if r.tableStats(s) == nil {
		panic(fmt.Sprintf("jstar: put of tuple from undeclared table %s", s.Name))
	}
	id := s.ID()
	sl := &r.slots[slot]
	c := &sl.counts[id]
	r.admit(r.cell(sl, rule, id), from, t)
	if r.noDelta[id] {
		if !r.noGamma[id] {
			if !r.gammaDB.Insert(t) {
				c.Duplicates.Add(1)
				return
			}
			r.dirtyByID[id].Store(true)
			if r.prefixTrack.Load() && s.Arity() > 0 {
				r.prefixDirty[id].Or(1 << PrefixBucket(t.Field(0)))
			}
		}
		if len(r.rulesByID[id]) > 0 {
			r.fireInline(t, slot)
		}
		return
	}
	sl.mu.Lock()
	if n := len(sl.buf); n > 0 && sl.buf[n-1].Equal(t) {
		sl.mu.Unlock()
		c.Duplicates.Add(1)
		return
	}
	sl.buf = append(sl.buf, t)
	sl.mu.Unlock()
}

// putNew is put(New(s, fields...)) that compares before it allocates: a
// repeat of the slot buffer's tail is counted and checked as the tail
// itself — equal tuples share a causal key — and never built. It keeps
// put's one slot-lock episode, so a new tuple is built under the lock.
func (r *Run) putNew(rule int, from *tuple.Tuple, s *tuple.Schema, fields []tuple.Value, slot int) {
	if r.tableStats(s) == nil || r.noDelta[s.ID()] {
		r.put(rule, from, tuple.New(s, fields...), slot)
		return
	}
	sl := &r.slots[slot]
	cell := r.cell(sl, rule, s.ID())
	sl.mu.Lock()
	defer sl.mu.Unlock() // New and the causality check may panic
	if n := len(sl.buf); n > 0 && sl.buf[n-1].EqualNew(s, fields...) {
		r.admit(cell, from, sl.buf[n-1])
		sl.counts[s.ID()].Duplicates.Add(1)
		return
	}
	t := tuple.New(s, fields...)
	r.admit(cell, from, t)
	sl.buf = append(sl.buf, t)
}

// cell returns slot sl's dataflow cell for puts by rule into table id.
func (r *Run) cell(sl *putSlot, rule int, id int32) *atomic.Int64 {
	return &sl.puts[rule*len(r.statsByID)+int(id)]
}

// admit counts t as a put in its (rule, table) cell and, under
// CheckCausality, checks it against its trigger.
func (r *Run) admit(cell *atomic.Int64, from, t *tuple.Tuple) {
	cell.Add(1)
	if r.opts.CheckCausality && from != nil {
		r.checkPut(from, t)
	}
}

// checkPut panics if t's causal key precedes its trigger's — the law of
// causality (§4).
func (r *Run) checkPut(from, t *tuple.Tuple) {
	kf := order.KeyOf(r.prog.po, from)
	kt := order.KeyOf(r.prog.po, t)
	if order.Compare(kt, kf) < 0 {
		panic(fmt.Sprintf("jstar: causality violation: rule triggered by %v (key %v) put %v (key %v) into the past",
			from, kf, t, kt))
	}
}

// Stats returns the run statistics (valid after Execute returns).
func (r *Run) Stats() *RunStats { return &r.stats }

// Program returns the program this run executes.
func (r *Run) Program() *Program { return r.prog }

// StrategyName reports the strategy driving this run ("auto", "sequential"
// or "forkjoin").
func (r *Run) StrategyName() string { return r.opts.Strategy.String() }

// Output returns the Println lines produced so far. Within one parallel
// batch the order is scheduling-dependent; across batches it follows the
// causality ordering.
func (r *Run) Output() []string { return r.out.snapshot() }

// Gamma exposes the run's Gamma database for post-run inspection —
// the program's result relation contents.
func (r *Run) Gamma() *gamma.DB { return r.gammaDB }

// DeltaLen reports how many tuples are still queued (0 after Execute).
func (r *Run) DeltaLen() int { return r.delta.Len() }

// Threads reports the degree of parallelism used by the run: the size of
// the pool it fans out on, 1 when it cannot.
func (r *Run) Threads() int { return r.threads }

// Execute is the one-call convenience: build a run, execute it, return it.
func (p *Program) Execute(opts Options) (*Run, error) {
	r, err := p.NewRun(opts)
	if err != nil {
		return nil, err
	}
	if err := r.Execute(); err != nil {
		return r, err
	}
	return r, nil
}
