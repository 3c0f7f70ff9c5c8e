// Package core implements the JStar execution engine — the paper's primary
// contribution: a bottom-up, pseudo-naive, incremental evaluator for
// Datalog-with-negation programs whose tuples carry explicit causality
// timestamps (paper §3–§5).
//
// A Program is a set of table schemas, order declarations, rules, and
// initial puts. Running a program drives the tuple lifecycle of Fig 3:
//
//  1. a rule (or initial put) creates a tuple, which enters the Delta set;
//  2. each step removes the minimal causal equivalence class from Delta,
//     inserts it into the Gamma database, and fires all triggered rules —
//     in parallel under the all-minimums strategy;
//  3. rules query Gamma and put new (strictly future) tuples;
//  4. tuples are retained in Gamma unless the -noGamma hint says the table
//     is trigger-only.
//
// The -noDelta hint short-circuits step 1: tuples of such tables go straight
// to Gamma and fire their rules immediately on the producing task (§5.1).
package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/order"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// Rule is one JStar computation rule: `foreach (Trigger t) { body }`.
// The body inspects the database through the Ctx and puts new tuples.
type Rule struct {
	Name    string
	Trigger *tuple.Schema
	Body    func(c *Ctx, t *tuple.Tuple)
	id      int // registration index: the rule's row in the put slot's ledger
}

// pseudoRules own the puts no rule makes — a program's initial puts and a
// session's external tuples, absorbed or replayed from the WAL — so every
// put lands in one (rule, table) cell of the put slot's ledger. They take
// the ledger rows after the registered rules'.
var pseudoRules = [...]string{"put", "event"}

// pseudoRule returns the ledger row of the pseudo-rule named name.
func (p *Program) pseudoRule(name string) int {
	return len(p.rules) + slices.Index(pseudoRules[:], name)
}

// Program is an immutable-after-setup JStar program definition.
type Program struct {
	po      *order.PartialOrder
	tables  map[string]*tuple.Schema
	byID    []*tuple.Schema
	rules   []*Rule
	trigger map[*tuple.Schema][]*Rule
	// The initial puts, in call order: Put's tuples in initial, PutNew's
	// all-scalar rows as words in rows, each run of consecutive rows of one
	// table anchored after the tuples put before it (see seed.go).
	initial []*tuple.Tuple
	runs    []rowRun
	rows    rowLog
	hints   map[string]gamma.StoreFactory
	// planHints are static store-plan hints — kind specs derived from the
	// program's query patterns (the lang compiler emits them). They are the
	// lowest-priority layer of store selection: Options.StorePlan beats
	// GammaHint beats planHints beats the strategy's default factory.
	planHints gamma.StorePlan
	actions   map[*tuple.Schema]func(run *Run, t *tuple.Tuple)
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{
		po:        order.NewPartialOrder(),
		tables:    make(map[string]*tuple.Schema),
		trigger:   make(map[*tuple.Schema][]*Rule),
		hints:     make(map[string]gamma.StoreFactory),
		planHints: make(gamma.StorePlan),
		actions:   make(map[*tuple.Schema]func(*Run, *tuple.Tuple)),
	}
}

// Table declares a relation and returns its schema. It panics on duplicate
// names or invalid declarations (static errors in real JStar).
func (p *Program) Table(name string, cols []tuple.Column, orderBy []tuple.OrderEntry) *tuple.Schema {
	if _, dup := p.tables[name]; dup {
		panic(fmt.Sprintf("jstar: table %s declared twice", name))
	}
	s := tuple.MustSchema(name, cols, orderBy)
	s.SetID(int32(len(p.byID)))
	p.tables[name] = s
	p.byID = append(p.byID, s)
	for _, e := range orderBy {
		if e.Kind == tuple.OrderLit {
			p.po.Touch(e.Lit)
		}
	}
	return s
}

// Schema returns a previously declared table's schema, or nil.
func (p *Program) Schema(name string) *tuple.Schema { return p.tables[name] }

// Tables returns all declared schemas in declaration order.
func (p *Program) Tables() []*tuple.Schema { return p.byID }

// Order adds an `order a < b < c` declaration; it panics on cycles, which
// would make local stratification impossible (§4).
func (p *Program) Order(chain ...string) {
	if err := p.po.Declare(chain...); err != nil {
		panic(err)
	}
}

// PartialOrder exposes the causality partial order (used by the checker and
// the visualiser).
func (p *Program) PartialOrder() *order.PartialOrder { return p.po }

// Rule registers a rule triggered by each tuple of the trigger table.
func (p *Program) Rule(name string, trig *tuple.Schema, body func(c *Ctx, t *tuple.Tuple)) *Rule {
	r := &Rule{Name: name, Trigger: trig, Body: body, id: len(p.rules)}
	p.rules = append(p.rules, r)
	p.trigger[trig] = append(p.trigger[trig], r)
	return r
}

// Rules returns all registered rules in registration order.
func (p *Program) Rules() []*Rule { return p.rules }

// Put schedules an initial tuple (a top-level `put` command). The tuple
// is kept until the program is dropped; PutNew keeps an all-scalar row as
// its words instead, and is the one to use for bulk inputs.
func (p *Program) Put(t *tuple.Tuple) { p.initial = append(p.initial, t) }

// PutNew schedules the initial tuple New(s, fields...) — the top-level
// `put new T(...)`, as Ctx.PutNew is a rule's. It panics on arity and
// normalises each field exactly as tuple.New does, at the call. A row of
// an all-scalar table (tuple.Schema.WordRows) is kept as its words in a
// chunked, pointer-free log, and the run builds its tuple only if it needs
// one: a row of a -noDelta table that triggers no rule, is not -noGamma
// and has a store implementing gamma.RowInserter goes straight into that
// store at seed. Any other row, and any other table's fields, make the
// tuple Put would have been given. Either way the run is the one Put of
// that tuple would make: the same call order, stores, statistics and
// panics.
func (p *Program) PutNew(s *tuple.Schema, fields ...tuple.Value) {
	if !s.WordRows() {
		p.Put(tuple.New(s, fields...))
		return
	}
	p.rows.add(s, fields)
	if k := len(p.runs) - 1; k >= 0 && p.runs[k].s == s && p.runs[k].after == len(p.initial) {
		p.runs[k].n++
		return
	}
	p.runs = append(p.runs, rowRun{s: s, after: len(p.initial), n: 1})
}

// Action registers an external side effect performed when a tuple of the
// given table is taken out of the Delta set (paper §3: "some tuples
// generated by the program can be requests for external actions, such as
// reading or updating files — such actions are performed when those tuples
// are taken out of the Delta Set"). Actions run on the coordinator in
// causal extraction order, so they are the deterministic way to sequence
// output — the "kosher way of printing" of §6.2 fn 8. At most one action
// per table. Tables listed in Options.NoDelta never pass through the Delta
// set, so their actions would never fire — the -noDelta hint is only legal
// for tables without external side effects (§5.1's "does not contain
// 'unsafe' code" condition), and Validate rejects it on a table with one.
func (p *Program) Action(s *tuple.Schema, fn func(run *Run, t *tuple.Tuple)) {
	if _, dup := p.actions[s]; dup {
		panic(fmt.Sprintf("jstar: table %s already has an action", s.Name))
	}
	p.actions[s] = fn
}

// PrintlnTable declares a system table whose tuples are printed, in causal
// order, as they leave the Delta set. Rules put ordered output through it
// instead of calling Println directly.
func (p *Program) PrintlnTable(name string, orderBy []tuple.OrderEntry) *tuple.Schema {
	s := p.Table(name, []tuple.Column{{Name: "line", Kind: tuple.KindString}}, orderBy)
	p.Action(s, func(run *Run, t *tuple.Tuple) {
		run.out.add(t.Str("line") + "\n")
	})
	return s
}

// GammaHint overrides the Gamma data structure for one table — the paper's
// stage-4 compiler hint (§2, §5).
func (p *Program) GammaHint(table string, f gamma.StoreFactory) {
	p.hints[table] = f
}

// PlanHint records a static store-plan hint (a gamma kind spec such as
// "columnar:2" or "hash:1") for one table. Hints are advisory defaults:
// an explicit GammaHint or an Options.StorePlan entry for the same table
// wins. The lang compiler emits them from the program's query patterns;
// Validate rejects specs that name unknown kinds or unsuitable tables.
func (p *Program) PlanHint(table, spec string) { p.planHints[table] = spec }

// PlanHints returns a copy of the static store-plan hints.
func (p *Program) PlanHints() gamma.StorePlan { return p.planHints.Clone() }

// Options configure one run — the JStar compiler/runtime flags.
type Options struct {
	// Strategy selects where firings run. The zero value Auto is the one to
	// use: each step fires inline until its own clock proves it heavy, then
	// fans out over the pool. Sequential never fans out — the paper's
	// -sequential code generator: a single-threaded step loop, no pool.
	// ForkJoin fans every multi-chunk step out (see package exec). The
	// strategy does not choose stores: every table defaults to the tree
	// store under all three.
	Strategy exec.Strategy
	// Threads is the fork/join pool size (--threads=N). 0 means GOMAXPROCS;
	// a run resolved to one thread has no pool and cannot fan out, whatever
	// the strategy.
	Threads int
	// NoDelta lists tables whose tuples bypass the Delta set and fire
	// their rules immediately (-noDelta T, §5.1).
	NoDelta []string
	// NoGamma lists trigger-only tables never inserted into Gamma
	// (-noGamma T, §5.1).
	NoGamma []string
	// StorePlan maps table names to named store kinds ("hash:2",
	// "columnar", ... — see gamma.FactoryFor for the spec syntax and
	// gamma.StoreKinds for the legal names). Plan entries override
	// Program.GammaHint and the compiler's static plan hints for their
	// tables; tables absent from the plan are unaffected. Plans typically
	// come from a previous run's RunStats.SuggestStorePlan (the
	// -save-plan/-store-plan tuning loop) and are validated by
	// Program.Validate before any run is built.
	StorePlan gamma.StorePlan
	// CheckCausality enables runtime verification that every put respects
	// the law of causality and that every query result is not from the
	// future. This is the dynamic counterpart of the SMT checks (§4);
	// it is meant for testing, not benchmarking.
	CheckCausality bool
	// MaxSteps aborts the run after this many execution steps (0 = no
	// limit). Catches accidentally non-terminating programs like the
	// unconditioned Ship rule of §3.
	MaxSteps int64
	// Quiet discards Println output instead of buffering it.
	Quiet bool
	// PhaseStats records the per-phase step breakdown
	// (RunStats.FireNanos/InsertNanos/MergeNanos/DeltaNanos and the
	// serial-boundary fraction). Off by default: it costs a handful of
	// clock reads per step, which shows on step-dominated programs;
	// cmd/jstar -stats and the repo benchmark's traced runs
	// (benchmark --trace 1) turn it on.
	PhaseStats bool
	// IngressRing bounds the Session ingress: the list of accepted
	// external tuples the coordinator has not yet absorbed. While it holds
	// this many, Put callers wait (backpressure) until the coordinator
	// takes the list at a step boundary, so it bounds how far ingestion can
	// outrun execution. A batch is accepted whole, so the list overshoots
	// the bound by less than one batch. Must be a power of two; 0 means
	// 1024.
	IngressRing int
	// Durability, when non-nil, turns the session durable: absorbed
	// external tuples are teed into a segmented write-ahead log with
	// group commit, Gamma is checkpointed at quiescent boundaries, and a
	// session started over an existing log directory recovers its state
	// (newest valid checkpoint + WAL-tail replay). See DurabilityOptions.
	Durability *DurabilityOptions
	// Pool lets callers share an external fork/join pool across runs
	// (benchmarks); when nil the run creates and owns one. Its size replaces
	// Threads.
	Pool PoolRef
}

// PoolRef abstracts the scheduling pool so callers can inject a shared one.
// ForWorker is the engine's firing primitive: body receives the executing
// participant's slot (0 = the calling goroutine, 1..Size() = pool workers)
// so each can own a put buffer, and done(slot) runs on each participant as
// it leaves (see exec.Pool).
type PoolRef interface {
	Size() int
	For(n, grain int, body func(i int))
	ForWorker(n, grain int, body func(slot, i int), done func(slot int))
}

// threads resolves the size of the pool a run builds for itself.
func (o *Options) threads() int {
	if o.Threads > 0 {
		return o.Threads
	}
	return runtime.GOMAXPROCS(0)
}

// ingressRing resolves the Session ingress bound.
func (o *Options) ingressRing() int {
	if o.IngressRing > 0 {
		return o.IngressRing
	}
	return 1024
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// knownTables renders the declared table names for actionable
// unknown-table errors.
func (p *Program) knownTables() string {
	if len(p.byID) == 0 {
		return "none declared"
	}
	names := make([]string, len(p.byID))
	for i, s := range p.byID {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
}

// Validate reports configuration errors: unknown table names in NoDelta/
// NoGamma/hints, a NoDelta table with an action, unknown or unsuitable
// store kinds in StorePlan and the compiler's plan hints (listing the
// legal kinds), a negative thread count, a malformed ingress bound and two
// tables whose orderby lists meet at a Delta-tree level with entries of
// different kinds.
// Every error says what was wrong and what the legal values are, so
// misconfiguration never silently degrades or panics mid-run.
func (p *Program) Validate(opts Options) error {
	var errs []string
	if opts.Threads < 0 {
		errs = append(errs, fmt.Sprintf("Threads: %d is negative (0 means GOMAXPROCS)", opts.Threads))
	}
	if opts.IngressRing < 0 || (opts.IngressRing > 0 && opts.IngressRing&(opts.IngressRing-1) != 0) {
		errs = append(errs, fmt.Sprintf("IngressRing: %d is not a power of two (0 means 1024)", opts.IngressRing))
	}
	for _, t := range opts.NoDelta {
		if s, ok := p.tables[t]; !ok {
			errs = append(errs, fmt.Sprintf("-noDelta %s: unknown table (declared: %s)", t, p.knownTables()))
		} else if _, act := p.actions[s]; act {
			errs = append(errs, fmt.Sprintf("-noDelta %s: the table has an action, which fires only when its tuples leave the Delta set", t))
		}
	}
	for _, t := range opts.NoGamma {
		if _, ok := p.tables[t]; !ok {
			errs = append(errs, fmt.Sprintf("-noGamma %s: unknown table (declared: %s)", t, p.knownTables()))
		}
	}
	for t := range p.hints {
		if _, ok := p.tables[t]; !ok {
			errs = append(errs, fmt.Sprintf("gamma hint for %s: unknown table (declared: %s)", t, p.knownTables()))
		}
	}
	checkPlan := func(label string, plan gamma.StorePlan) {
		for t, spec := range plan {
			s, ok := p.tables[t]
			if !ok {
				errs = append(errs, fmt.Sprintf("%s for %s: unknown table (declared: %s)", label, t, p.knownTables()))
				continue
			}
			if _, err := gamma.FactoryFor(spec, s); err != nil {
				errs = append(errs, fmt.Sprintf("%s for %s: %v", label, t, err))
			}
		}
	}
	checkPlan("store plan", opts.StorePlan)
	checkPlan("store plan hint", p.planHints)
	errs = append(errs, p.orderbyConflicts()...)
	if opts.Durability != nil {
		errs = append(errs, opts.Durability.validate()...)
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		return fmt.Errorf("jstar: %s", strings.Join(errs, "; "))
	}
	return nil
}

// orderbyConflicts reports each pair of tables whose orderby lists can
// reach the same Delta-tree level with entries of different kinds. Two
// tables meet at level i when every earlier pair of entries is the same
// literal, both seq or both par; a level holds children of one kind only,
// so the run would fail at the first put that reached it.
func (p *Program) orderbyConflicts() []string {
	var errs []string
	for i, a := range p.byID {
		for _, b := range p.byID[i+1:] {
			for l := range min(len(a.OrderBy), len(b.OrderBy)) {
				ea, eb := a.OrderBy[l], b.OrderBy[l]
				if ea.Kind != eb.Kind {
					errs = append(errs, fmt.Sprintf("orderby of %s entry %d (%s) conflicts with %s entry %d (%s): tables that meet at a Delta-tree level must agree on its kind (literal, seq or par)",
						a.Name, l, ea, b.Name, l, eb))
					break
				}
				if ea.Kind == tuple.OrderLit && ea.Lit != eb.Lit {
					break
				}
			}
		}
	}
	return errs
}

// outputBuffer collects Println lines from rules. The order of lines within
// one parallel batch is scheduling-dependent (only the output *set* is
// deterministic, §1.3), so tests should sort before comparing.
type outputBuffer struct {
	mu    sync.Mutex
	lines []string
	quiet bool
}

func (b *outputBuffer) add(line string) {
	if b.quiet {
		return
	}
	b.mu.Lock()
	b.lines = append(b.lines, line)
	b.mu.Unlock()
}

func (b *outputBuffer) snapshot() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.lines...)
}
