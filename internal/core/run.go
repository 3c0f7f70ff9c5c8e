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
// strategies. A firing does not write them: it counts its puts, duplicates
// and queries in its own put slot (slotCounts), and endStep folds every
// slot in on the coordinator once the step's firings are quiesced, so the
// counters are exact at every step boundary — in particular whenever a
// session is quiesced — and workers never share a counter's cache line.
// Triggers, the boundary's duplicates and Session.Query's queries are
// counted here directly, by the coordinator or once per fired chunk.
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

// slotCounts is one put slot's share of one table's TableStats since the
// last step boundary. Its counters are atomic because a slot is shared by
// its firing rule's own pool.For helpers and by the -noDelta firings they
// run inline; the goroutines sharing a slot are one firing's, so the adds
// are uncontended. It fills one cache line, and a slot's counts are one
// allocation of whole lines, so two slots never share a line.
type slotCounts struct {
	puts, dups                atomic.Int64
	queries, indexed, plenSum atomic.Int64
	minPrefix                 atomic.Int64
	_                         [2]uint64
}

// noteQuery counts one query whose equality prefix holds n values.
func (c *slotCounts) noteQuery(n int) {
	c.queries.Add(1)
	if n > 0 {
		c.indexed.Add(1)
		c.plenSum.Add(int64(n))
		casMin(&c.minPrefix, int64(n))
	}
}

// foldInto adds c to t and zeroes c. Coordinator only, with the slot's
// firings quiesced.
func (c *slotCounts) foldInto(t *TableStats) {
	if p := c.puts.Load(); p != 0 {
		t.Puts.Add(p)
		c.puts.Store(0)
	}
	if d := c.dups.Load(); d != 0 {
		t.Duplicates.Add(d)
		c.dups.Store(0)
	}
	if q := c.queries.Load(); q != 0 {
		t.Queries.Add(q)
		c.queries.Store(0)
	}
	if n := c.indexed.Load(); n != 0 {
		t.IndexedQueries.Add(n)
		t.PrefixLenSum.Add(c.plenSum.Load())
		casMin(&t.MinPrefixLen, c.minPrefix.Load())
		c.indexed.Store(0)
		c.plenSum.Store(0)
		c.minPrefix.Store(0)
	}
}

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

// RunStats aggregates statistics across a run.
type RunStats struct {
	Steps      int64 // execution steps (minimum-batch extractions)
	MaxBatch   int   // largest parallel batch
	TotalLive  int64 // live (non-duplicate) tuples entering step batches
	TotalFired int64 // total rule firings
	Elapsed    time.Duration
	Tables     map[string]*TableStats
	RuleNanos  map[string]*atomic.Int64 // cumulative body time per rule

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

	// flowMu guards Flow, the observed dataflow edges rule -> table
	// (tuples put by each rule into each table). Populated only under
	// Options.TraceDataflow; this is the log the §1.5 visualiser renders
	// as an annotated dependency graph.
	flowMu sync.Mutex
	Flow   map[[2]string]int64
}

// FlowEdges returns a copy of the observed rule->table put counts.
func (s *RunStats) FlowEdges() map[[2]string]int64 {
	s.flowMu.Lock()
	defer s.flowMu.Unlock()
	out := make(map[[2]string]int64, len(s.Flow))
	for k, v := range s.Flow {
		out[k] = v
	}
	return out
}

func (s *RunStats) addFlow(rule, table string) {
	s.flowMu.Lock()
	if s.Flow == nil {
		s.Flow = make(map[[2]string]int64)
	}
	s.Flow[[2]string{rule, table}]++
	s.flowMu.Unlock()
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
// A slot also counts, by schema ID, the puts, dropped repeats and queries
// of the firings on it (slotCounts), which endStep folds into TableStats.
// The struct is one cache line, so adjacent slots never share one.
type putSlot struct {
	mu     sync.Mutex
	buf    []*tuple.Tuple
	counts []slotCounts // by schema ID
	_      [1]uint64    // keep adjacent slots off one cache line
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
	slotCtx  []Ctx            // per-slot reusable rule contexts for fireBatch
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
	for _, s := range p.byID {
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
	r.stats.RuleNanos = make(map[string]*atomic.Int64, len(p.rules))
	for _, rule := range p.rules {
		if _, dup := r.stats.RuleNanos[rule.Name]; !dup {
			r.stats.RuleNanos[rule.Name] = &atomic.Int64{}
		}
	}

	// One put buffer per participant: the coordinator (slot 0) and each pool
	// worker — a lone slot when the run cannot fan out.
	slots := 1
	if r.pool != nil {
		slots += r.threads
	}
	r.slots = make([]putSlot, slots)
	for i := range r.slots {
		r.slots[i].counts = make([]slotCounts, n)
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

// ExecuteEvents is the event-driven execution mode (§3): external input
// tuples arrive on events and are treated like any other tuple — they enter
// the Delta set and trigger rules. It keeps the legacy serial contract —
// the database drains to quiescence between event batches — as a wrapper
// over Session: each channel receive (plus any already-pending events) is
// one Put batch followed by a Quiesce. New code should use Program.Start
// directly; Session.Put does not wait for quiescence, so ingestion
// overlaps execution.
func (r *Run) ExecuteEvents(events <-chan *tuple.Tuple) error {
	s, err := r.startSession(context.Background())
	if err != nil {
		return err
	}
	bg := context.Background()
	// Legacy contract: the initial puts drain to full quiescence before
	// the first external event is absorbed (a Session would overlap them).
	feedErr := s.Quiesce(bg)
	if feedErr == nil {
	feed:
		for t := range events {
			if feedErr = s.Put(t); feedErr != nil {
				break
			}
			// Opportunistically absorb already-pending events so one
			// quiescence covers simultaneous inputs, as the pre-Session
			// loop did.
			for {
				select {
				case t, ok := <-events:
					if !ok {
						break feed
					}
					if feedErr = s.Put(t); feedErr != nil {
						break feed
					}
					continue
				default:
				}
				break
			}
			if feedErr = s.Quiesce(bg); feedErr != nil {
				break
			}
		}
	}
	qErr := s.Quiesce(bg)
	cErr := s.Close()
	// A Put rejection (nil tuple, undeclared table) is not a session
	// failure, so Quiesce/Close would report success; the feed error still
	// means events were dropped and must surface.
	if feedErr != nil {
		return feedErr
	}
	if qErr != nil {
		return qErr
	}
	return cErr
}

// seed performs the program's initial puts on the coordinator slot and
// flushes them into the Delta tree.
func (r *Run) seed() {
	for _, t := range r.prog.initial {
		r.put("put", nil, t, 0)
	}
	r.endStep()
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

// foldCounts moves every slot's counts into the tables' TableStats.
// Coordinator only, with the step's firings quiesced (endStep).
func (r *Run) foldCounts() {
	for i := range r.slots {
		cs := r.slots[i].counts
		for id := range cs {
			cs[id].foldInto(r.statsByID[id])
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

// fireBatch runs every rule triggered by each tuple of ts, buffering puts
// under slot — the batch-first dispatch path behind exec.Host.FireBatch.
// The chunk arrives sorted by schema (BeginStep's ordering), so it splits
// into schema-homogeneous runs; each run pays its rulesByID/statsByID
// lookups, Triggers/TotalFired accounting and Ctx setup once.
func (r *Run) fireBatch(ts []*tuple.Tuple, slot int) {
	if len(ts) == 0 {
		return
	}
	r.stats.FireBatches.Add(1)
	ctx := &r.slotCtx[slot]
	var fired int64
	for i := 0; i < len(ts); {
		s := ts[i].Schema()
		j := i + 1
		for j < len(ts) && ts[j].Schema() == s {
			j++
		}
		group := ts[i:j]
		i = j
		rules := r.rulesByID[s.ID()]
		if len(rules) == 0 {
			continue
		}
		n := int64(len(rules)) * int64(len(group))
		r.statsByID[s.ID()].Triggers.Add(n)
		fired += n
		for _, rule := range rules {
			r.invokeGroup(ctx, rule, group)
		}
	}
	if fired > 0 {
		atomic.AddInt64(&r.stats.TotalFired, fired)
	}
}

// invokeGroup fires one rule over a schema-homogeneous group of triggers,
// tuple by tuple. One recover guards the group: a rule panic fails the
// run, so finishing the group's remaining tuples would be wasted work.
func (r *Run) invokeGroup(ctx *Ctx, rule *Rule, ts []*tuple.Tuple) {
	defer func() {
		if p := recover(); p != nil {
			r.setFail(fmt.Errorf("jstar: rule %s on %v panicked: %v", rule.Name, ctx.trigger, p))
			ctx.popTo(0) // the panic unwound past the queries' own pops
		}
	}()
	ctx.rule = rule
	start := time.Now()
	for _, t := range ts {
		ctx.trigger = t
		rule.Body(ctx, t)
	}
	if n := r.stats.RuleNanos[rule.Name]; n != nil {
		n.Add(int64(time.Since(start)))
	}
}

// fire runs every rule triggered by t, buffering puts under slot — the
// per-tuple path kept for -noDelta inline firing, where tuples fire on
// the producing task the moment they enter Gamma (§5.1) and cannot wait
// to be chunked. Accounting is still folded to one update per counter.
func (r *Run) fire(t *tuple.Tuple, slot int) {
	rules := r.rulesByID[t.Schema().ID()]
	if len(rules) == 0 {
		return
	}
	r.statsByID[t.Schema().ID()].Triggers.Add(int64(len(rules)))
	atomic.AddInt64(&r.stats.TotalFired, int64(len(rules)))
	for _, rule := range rules {
		r.invoke(rule, t, slot)
	}
}

func (r *Run) invoke(rule *Rule, t *tuple.Tuple, slot int) {
	defer func() {
		if p := recover(); p != nil {
			r.setFail(fmt.Errorf("jstar: rule %s on %v panicked: %v", rule.Name, t, p))
		}
	}()
	// A fresh Ctx, not the slot's shared one: inline -noDelta fires nest
	// inside a rule body that is still using the slot Ctx.
	ctx := &Ctx{run: r, rule: rule, trigger: t, slot: slot}
	start := time.Now()
	rule.Body(ctx, t)
	if n := r.stats.RuleNanos[rule.Name]; n != nil {
		n.Add(int64(time.Since(start)))
	}
}

func (r *Run) tableStats(s *tuple.Schema) *TableStats {
	if id := int(s.ID()); id < len(r.statsByID) && r.prog.byID[id] == s {
		return r.statsByID[id]
	}
	return nil
}

// put implements the tuple creation path shared by initial puts and rule
// puts. from is the trigger tuple of the producing rule, nil for initial
// puts; slot identifies the put buffer of the executing participant.
// Under -noDelta the tuple goes straight to Gamma and fires its rules on
// the calling task; everything else is appended to the slot buffer and
// flushed into the Delta tree at the step boundary — unless it equals the
// buffer's tail, the slot's previous put this step: then it is a
// duplicate the boundary would drop, and it is dropped here.
func (r *Run) put(ruleName string, from *tuple.Tuple, t *tuple.Tuple, slot int) {
	s := t.Schema()
	if r.tableStats(s) == nil {
		panic(fmt.Sprintf("jstar: put of tuple from undeclared table %s", s.Name))
	}
	id := s.ID()
	sl := &r.slots[slot]
	c := &sl.counts[id]
	r.admit(c, ruleName, from, t)
	if r.noDelta[id] {
		if !r.noGamma[id] {
			if !r.gammaDB.Insert(t) {
				c.dups.Add(1)
				return
			}
			r.dirtyByID[id].Store(true)
			if r.prefixTrack.Load() && s.Arity() > 0 {
				r.prefixDirty[id].Or(1 << PrefixBucket(t.Field(0)))
			}
		}
		r.fire(t, slot)
		return
	}
	sl.mu.Lock()
	if n := len(sl.buf); n > 0 && sl.buf[n-1].Equal(t) {
		sl.mu.Unlock()
		c.dups.Add(1)
		return
	}
	sl.buf = append(sl.buf, t)
	sl.mu.Unlock()
}

// putNew is put(New(s, fields...)) that compares before it allocates: a
// repeat of the slot buffer's tail is counted and checked as the tail
// itself — equal tuples share a causal key — and never built. It keeps
// put's one slot-lock episode, so a new tuple is built under the lock.
func (r *Run) putNew(ruleName string, from *tuple.Tuple, s *tuple.Schema, fields []tuple.Value, slot int) {
	if r.tableStats(s) == nil || r.noDelta[s.ID()] {
		r.put(ruleName, from, tuple.New(s, fields...), slot)
		return
	}
	sl := &r.slots[slot]
	c := &sl.counts[s.ID()]
	sl.mu.Lock()
	defer sl.mu.Unlock() // New and the causality check may panic
	if n := len(sl.buf); n > 0 && sl.buf[n-1].EqualNew(s, fields...) {
		r.admit(c, ruleName, from, sl.buf[n-1])
		c.dups.Add(1)
		return
	}
	t := tuple.New(s, fields...)
	r.admit(c, ruleName, from, t)
	sl.buf = append(sl.buf, t)
}

// admit counts t as a put in its slot's counts c and runs the put-time
// checks, which only traced or causality-checked runs pay for.
func (r *Run) admit(c *slotCounts, ruleName string, from, t *tuple.Tuple) {
	c.puts.Add(1)
	if r.opts.TraceDataflow || r.opts.CheckCausality {
		r.checkPut(ruleName, from, t)
	}
}

// checkPut records the put in the dataflow trace and, under
// CheckCausality, panics if t's causal key precedes its trigger's — the
// law of causality (§4).
func (r *Run) checkPut(ruleName string, from, t *tuple.Tuple) {
	if r.opts.TraceDataflow {
		r.stats.addFlow(ruleName, t.Schema().Name)
	}
	if r.opts.CheckCausality && from != nil {
		kf := order.KeyOf(r.prog.po, from)
		kt := order.KeyOf(r.prog.po, t)
		if order.Compare(kt, kf) < 0 {
			panic(fmt.Sprintf("jstar: causality violation: rule triggered by %v (key %v) put %v (key %v) into the past",
				from, kf, t, kt))
		}
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
