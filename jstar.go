// Package jstar is the public API of the Go implementation of JStar — the
// declarative, implicitly parallel, Datalog-with-causality language of
// Utting, Weng and Cleary ("The JStar Language Philosophy", Univ. of
// Waikato WP 06/2013).
//
// A JStar program stores all data in immutable in-memory relations. Rules
// fire once for each tuple of their trigger table, query the database, and
// put new tuples — whose timestamps must not precede the trigger's (the law
// of causality). Execution is bottom-up and parallel by default: each step
// extracts the minimal causal equivalence class from the Delta tree and
// fires all its rules — on the coordinator while the step is light, across
// a worker pool as soon as it proves heavy.
//
// Quickstart (the paper's §3 Ship example):
//
//	p := jstar.NewProgram()
//	ship := p.Table("Ship",
//		jstar.Cols(jstar.KeyInt("frame"), jstar.IntCol("x"), jstar.IntCol("y"),
//			jstar.IntCol("dx"), jstar.IntCol("dy")),
//		jstar.OrderBy(jstar.Lit("Int"), jstar.Seq("frame")))
//	p.Rule("moveRight", ship, func(c *jstar.Ctx, s *jstar.Tuple) {
//		if s.Int("x") < 400 {
//			c.PutNew(ship, jstar.Int(s.Int("frame")+1), jstar.Int(s.Int("x")+150),
//				s.Get("y"), s.Get("dx"), s.Get("dy"))
//		}
//	})
//	p.PutNew(ship, jstar.Int(0), jstar.Int(10), jstar.Int(10),
//		jstar.Int(150), jstar.Int(0))
//	run, err := p.Execute(jstar.Options{})
//
// Parallelism strategy and data-structure choices are runtime options, not
// program changes: Options.Strategy, Options.Threads, Options.NoDelta,
// Options.NoGamma, and Program.GammaHint correspond to the paper's compiler
// flags (-sequential is Strategy: StrategySequential, --threads, -noDelta T,
// -noGamma T, custom stores). Options.StorePlan closes the loop: a finished run's
// RunStats.SuggestStorePlan derives a per-table plan of named store kinds
// from the observed query/put/dup statistics (hash indexes for
// query-dominated point-probed tables, the columnar store keyed on the
// probed prefix for put-dominated ones and for append-mostly scan
// workloads),
// and replaying that plan on the next run — Options.StorePlan, or the
// -save-plan/-store-plan flags of cmd/jstar — swaps the backends without
// touching the program.
//
// # Lifecycle: Sessions
//
// The primary lifecycle is the long-lived Session — the engine as an
// online incremental service (the paper's §3 event-driven mode, made
// first-class):
//
//	sess, err := p.Start(ctx, jstar.Options{})   // seed + background drain
//	sess.Put(jstar.New(price, ...))              // inject external tuples,
//	sess.PutBatch(t1, t2, t3)                    // concurrently, from any
//	                                             // number of goroutines
//	sess.Quiesce(ctx)                            // wait for the fixpoint
//	sess.Query(price, jstar.Eq(...), visit)      // read quiesced Gamma state
//	sess.Close()                                 // release the pool
//
// Put and PutBatch never wait for quiescence: each call appends its batch
// to one pending list, which the coordinator takes whole at the next step
// boundary and puts into the Delta set, so ingestion overlaps rule
// execution. The only backpressure is a pending list already holding
// Options.IngressRing tuples. The ctx passed to Start bounds the whole
// session: cancellation and deadlines are honoured at every step boundary,
// so even a non-terminating program is stoppable without Options.MaxSteps.
//
// Sessions also go on the wire: cmd/jstar-serve (internal/serve) hosts
// many named programs as a multi-tenant HTTP service — streaming
// ingestion (JSON or binary batch frames) straight into PutBatch, prefix
// queries over quiesced state, and change subscriptions (long-poll/SSE)
// driven by Session.TableVersion / Session.WaitChange, the per-table
// quiesced-change generations folded from each step's Delta accounting.
//
// Program.Execute remains as a one-shot wrapper over the same Session
// machinery: start, quiesce, close.
//
// # Execution strategies and batched puts
//
// Where a step's firings run is the runtime's decision, made per step by
// one step loop (internal/exec) from that step's own clock. Options.Strategy
// only sets the loop's gate:
//
//   - StrategyAuto (zero value, the one to use) — the coordinator fires
//     the step's batch inline in doubling chunks and, as soon as the
//     unfired rest is predicted to cost half a millisecond, hands that
//     rest to the fork/join pool. Light steps never wake a worker, heavy
//     ones go parallel after their first few firings, and no history or
//     tuning is involved. RunStats.FannedSteps counts the steps that left
//     the coordinator.
//   - StrategySequential — no pool, the gate never opens: the -sequential
//     code generator.
//   - StrategyForkJoin — the gate forced open: every step's batch fires
//     across the pool (the paper's parallel code generator, §5).
//
// A run resolved to one thread (Options.Threads, GOMAXPROCS by default)
// has no pool, so under every strategy it is the coordinator firing alone
// over the sequential tree stores.
//
// All strategies share the batched put protocol: a rule firing appends new
// tuples to a per-worker put buffer instead of locking the global Delta
// tree. At the step boundary each worker seals its buffer — sorts it by
// the Delta-path order and hands it off as one pre-sorted run — and the
// coordinator k-way merges the runs (dropping set-semantics duplicates
// during the merge) straight into the Delta tree in one serial bulk
// load; the next step's Gamma inserts also stay on the coordinator.
// Batching does not change program semantics — tuples put during
// step k become visible to extraction exactly at the k/k+1 boundary, as
// before — it only removes per-put lock traffic and the serial
// concat-and-re-sort from the hot path. Options.PhaseStats records where
// each step's time goes (RunStats.FireNanos/InsertNanos/MergeNanos/
// DeltaNanos and the Amdahl serial-boundary fraction).
//
// Dispatch is batch-first too: a step's live batch is fired in contiguous
// chunks (the coordinator's doubling chunks, grain-sized chunks on the
// fork/join pool) handed whole to the engine, which amortises rule lookup,
// statistics accounting and rule-context setup per (schema, rule) group
// and then runs the rule's one per-tuple body on each trigger of the
// group, so every query result is checked against, and every put
// attributed to, the trigger that fired it. Within one step, firing order
// across and inside chunks is unspecified, exactly as the paper specifies
// for one parallel batch.
package jstar

import (
	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Program is a JStar program definition: tables, orders, rules, puts.
	Program = core.Program
	// Options are the per-run compiler/runtime flags.
	Options = core.Options
	// Ctx is the database view passed to executing rules.
	Ctx = core.Ctx
	// Rule is a registered computation rule.
	Rule = core.Rule
	// Run is one execution of a program.
	Run = core.Run
	// Session is a long-lived, concurrent-safe handle on a running
	// program: Start → Put/PutBatch ⇄ Quiesce → Close (see the package
	// comment's lifecycle section).
	Session = core.Session
	// RunStats carries the per-run usage statistics.
	RunStats = core.RunStats
	// DurabilityOptions turns a session durable (Options.Durability):
	// absorbed tuples tee into a segmented, group-committed write-ahead
	// log, Gamma is checkpointed at quiescent boundaries, and a session
	// started over an existing log directory recovers its state.
	DurabilityOptions = core.DurabilityOptions
	// RecoveryInfo describes what Start recovered from a WAL directory
	// (Session.Recovery).
	RecoveryInfo = core.RecoveryInfo
	// CheckpointInfo describes one published checkpoint
	// (Session.Checkpoint).
	CheckpointInfo = core.CheckpointInfo

	// Tuple is an immutable relation row.
	Tuple = tuple.Tuple
	// Value is a typed column value.
	Value = tuple.Value
	// Schema describes a declared table.
	Schema = tuple.Schema
	// Column describes one table column.
	Column = tuple.Column
	// OrderEntry is one component of a table's orderby list.
	OrderEntry = tuple.OrderEntry
	// Builder constructs tuples field by field.
	Builder = tuple.Builder

	// Query selects tuples: an equality prefix plus a residual predicate.
	Query = gamma.Query
	// Store is a Gamma table's storage.
	Store = gamma.Store
	// StoreFactory builds a Store for a schema (a data-structure hint).
	StoreFactory = gamma.StoreFactory
	// StorePlan maps table names to named store kinds ("hash:2",
	// "columnar", ...) — the serialisable, validated form of per-table
	// store selection (Options.StorePlan). Plans usually come from a
	// previous run: RunStats.SuggestStorePlan derives one from observed
	// per-table statistics, closing the profile-guided tuning loop.
	StorePlan = gamma.StorePlan

	// Strategy selects the execution engine for a run (Options.Strategy).
	Strategy = exec.Strategy
)

// Execution strategies (see the package comment).
const (
	// StrategyAuto fires each step inline until its own clock proves it
	// heavy, then fans the rest out across the pool.
	StrategyAuto = exec.Auto
	// StrategySequential fires every rule on one goroutine.
	StrategySequential = exec.Sequential
	// StrategyForkJoin fires every step batch across the pool.
	StrategyForkJoin = exec.ForkJoin
)

// ParseStrategy parses a -strategy flag value
// (auto|sequential|forkjoin).
func ParseStrategy(s string) (Strategy, error) { return exec.ParseStrategy(s) }

// ErrSessionClosed is returned by Session operations after Close.
var ErrSessionClosed = core.ErrSessionClosed

// NewProgram returns an empty program.
func NewProgram() *Program { return core.NewProgram() }

// Value constructors.
var (
	// Int makes an int Value.
	Int = tuple.Int
	// Float makes a double Value.
	Float = tuple.Float
	// Str makes a String Value.
	Str = tuple.String_
	// Bool makes a boolean Value.
	Bool = tuple.Bool
)

// New constructs a tuple positionally (panics on schema mismatch).
func New(s *Schema, fields ...Value) *Tuple { return tuple.New(s, fields...) }

// NewBuilder returns a field-by-field tuple builder with zero defaults.
func NewBuilder(s *Schema) *Builder { return tuple.NewBuilder(s) }

// CopyOf returns a builder seeded from an existing tuple (the generated
// copy method: update a few fields, build a new immutable tuple).
func CopyOf(t *Tuple) *Builder { return tuple.CopyOf(t) }

// Column constructors.

// IntCol declares an int column.
func IntCol(name string) Column { return Column{Name: name, Kind: tuple.KindInt} }

// FloatCol declares a double column.
func FloatCol(name string) Column { return Column{Name: name, Kind: tuple.KindFloat} }

// StrCol declares a String column.
func StrCol(name string) Column { return Column{Name: name, Kind: tuple.KindString} }

// BoolCol declares a boolean column.
func BoolCol(name string) Column { return Column{Name: name, Kind: tuple.KindBool} }

// KeyInt declares an int primary-key column (left of `->`).
func KeyInt(name string) Column { return Column{Name: name, Kind: tuple.KindInt, Key: true} }

// KeyStr declares a String primary-key column.
func KeyStr(name string) Column { return Column{Name: name, Kind: tuple.KindString, Key: true} }

// Cols collects columns (reads like the parenthesised declaration list).
func Cols(cs ...Column) []Column { return cs }

// OrderBy collects orderby entries.
func OrderBy(es ...OrderEntry) []OrderEntry { return es }

// Orderby entry constructors.
var (
	// Lit is a literal orderby entry, ordered by `order` declarations.
	Lit = tuple.Lit
	// Seq is a `seq field` entry: sorted sequentially by the field.
	Seq = tuple.Seq
	// Par is a `par field` entry: unordered, parallel subtrees.
	Par = tuple.Par
)

// Eq builds a Query matching an equality prefix of column values.
func Eq(prefix ...Value) Query { return Query{Prefix: prefix} }

// Where builds a Query with an equality prefix and residual predicate —
// the `[lambda]` part of a JStar query.
func Where(pred func(*Tuple) bool, prefix ...Value) Query {
	return Query{Prefix: prefix, Where: pred}
}

// Gamma data-structure hints (paper stage 4).
var (
	// TreeStore is the NavigableSet default: a B-tree ordered by all
	// fields, standing in for both the paper's TreeSet and its
	// ConcurrentSkipListSet.
	TreeStore StoreFactory = gamma.NewTreeStore
)

// HashStore hashes on the first k columns (point queries in O(1)).
func HashStore(k int) StoreFactory { return gamma.NewHashStore(k) }

// ColumnarStore is the compressed append-only row store keyed on the
// first k columns: every row as 64-bit words in one flat slice (strings
// dictionary-encoded), O(1) full-row dedup, and one chain per key, so a
// Select whose prefix covers the key walks one chain instead of the table.
// Tuples are materialised only for rows surviving the word-level prefix
// filter. Best for append-mostly tables read by scans or by point lookups
// on at least their first k columns.
func ColumnarStore(k int) StoreFactory { return gamma.NewColumnarStore(k) }

// StoreKinds lists the legal named store kinds accepted by
// Options.StorePlan ("tree", "hash", "columnar", "arrayhash", "dense3d",
// "rolling"; see gamma.FactoryFor for parameter syntax).
func StoreKinds() []string { return gamma.StoreKinds() }

// ArrayOfHashSets indexes one small-range int column with a hash set per
// slot — the custom PvWatts structure of §6.2.
func ArrayOfHashSets(col int, lo, hi int64) StoreFactory {
	return gamma.NewArrayOfHashSets(col, lo, hi)
}

// Dense3D stores (int a, int b, int c -> int v) tables in flat native
// arrays — the §6.4 native-arrays optimisation.
func Dense3D(na, nb, nc int) StoreFactory { return gamma.NewDense3D(na, nb, nc) }

// RollingFloatArray stores (int iter, int index -> double v) tables in a
// two-iteration rolling array — the §6.6 Median optimisation.
func RollingFloatArray(n int) StoreFactory { return gamma.NewRollingFloatArray(n) }
