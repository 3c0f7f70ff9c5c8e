package core

import (
	"fmt"
	"math"

	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/order"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// Ctx is the view a rule body has of the running program: it can put new
// tuples, query the Gamma database (positively, negatively, and with
// aggregates), and emit Println output. It corresponds to the generated
// rule environment in the Java backend.
//
// Concurrency contract: a Ctx belongs to the goroutine running the firing.
// Put and PutNew may additionally be called from the rule's own pool.For
// workers (§5.2's loop parallelism inside a rule — what pvwatts' -noDelta
// reader does); they touch only the slot's locked put buffer, whose tail —
// the put that decides whether the next one is a repeat to drop — is then
// whichever worker's put took the lock last, and the slot's atomic
// counters, which -noDelta firings running inline on those workers share
// too. Every query
// method (ForEach, GetUniq, Exists, Count, GetMin, SumInt) uses the Ctx's
// unsynchronised scratch and must stay on the firing goroutine.
type Ctx struct {
	run     *Run
	rule    *Rule
	trigger *tuple.Tuple
	slot    int // put-buffer slot of the executing participant

	// Query scratch. A query copies its prefix into prefix, lets the store
	// push the prefix's matches onto found through push, and only then — the
	// store call returned, no store lock held — runs Where, the causality
	// check and the visitor over found[base:]. Visitors may query again:
	// the nested query pushes above the outer one's matches and pops back to
	// its own base, so the outer loop indexes found rather than slicing it.
	prefix []tuple.Value
	found  []*tuple.Tuple
	stopAt int                     // len(found) at which push ends the store walk
	push   func(*tuple.Tuple) bool // the one callback stores see; built on first use
}

// Trigger returns the tuple that fired this rule (nil for initial puts).
func (c *Ctx) Trigger() *tuple.Tuple { return c.trigger }

// Put adds a new tuple to the database: it is appended to this worker's
// put buffer and flushed into the Delta set as part of the step-boundary
// batch (or, under -noDelta, inserted into Gamma and fired inline). A put
// equal to the buffer's tail — the slot's previous put this step, still
// unflushed — is counted as a put and a duplicate and dropped on the spot,
// exactly as the boundary's dedup would count and drop it. Under
// Options.CheckCausality it panics if the new tuple's causal key precedes
// the trigger's — the law of causality (§4).
func (c *Ctx) Put(t *tuple.Tuple) {
	c.run.put(c.rule.id, c.trigger, t, c.slot)
}

// PutNew builds a tuple positionally and puts it: ctx.PutNew(ship, v...) is
// `put new Ship(v...)`. A repeat of the put buffer's tail (see Put) is
// recognised from the fields and never built, so the grouping idiom
// `foreach (X x) put new G(x.key)` allocates once per group run, not once
// per firing.
func (c *Ctx) PutNew(s *tuple.Schema, fields ...tuple.Value) {
	c.run.putNew(c.rule.id, c.trigger, s, fields, c.slot)
}

// checkResult enforces, in CheckCausality mode, that a query result is not
// from the future of the trigger (positive queries need key <= trigger).
func (c *Ctx) checkResult(t *tuple.Tuple) {
	if !c.run.opts.CheckCausality || c.trigger == nil {
		return
	}
	po := c.run.prog.po
	if order.Compare(order.KeyOf(po, t), order.KeyOf(po, c.trigger)) > 0 {
		panic(fmt.Sprintf("jstar: causality violation: rule %s triggered by %v read future tuple %v",
			c.rule.Name, c.trigger, t))
	}
}

// visit is the one read path: it collects table s's matches of prefix (at
// most limit of them, ending the store walk there) and calls fn on those
// that pass where and the causality check, until fn returns false. prefix,
// where and fn are only read and called here, never stored or handed to the
// store, so a caller's literals and closures stay on its stack. A query of
// a -noGamma table, which would always read empty, and a prefix longer
// than the table is wide panic instead; the firing turns the panic into
// the run's located error.
func (c *Ctx) visit(s *tuple.Schema, prefix []tuple.Value, where func(*tuple.Tuple) bool, limit int, fn func(*tuple.Tuple) bool) {
	if id := int(s.ID()); id < len(c.run.noGamma) && c.run.noGamma[id] {
		c.run.refuseNoGammaQuery(s)
	}
	if err := checkPrefix(s, len(prefix)); err != nil {
		panic(err.Error())
	}
	if c.push == nil {
		c.push = func(t *tuple.Tuple) bool {
			c.found = append(c.found, t)
			return len(c.found) < c.stopAt
		}
	}
	base := len(c.found)
	c.stopAt = base + limit
	c.prefix = append(c.prefix[:0], prefix...)
	c.run.gammaDB.Table(s).Select(gamma.Query{Prefix: c.prefix}, c.push)
	clear(c.prefix) // string values must not outlive the query in scratch
	for i, end := base, len(c.found); i < end; i++ {
		t := c.found[i]
		if where != nil && !where(t) {
			continue
		}
		c.checkResult(t)
		if !fn(t) {
			break
		}
	}
	c.popTo(base)
}

// noteQuery counts a query of table s with a prefix of the given length,
// in the firing slot's counts. A table the program never declared has no
// store to read, so its query panics, and the firing turns the panic into
// the run's located error.
func (c *Ctx) noteQuery(s *tuple.Schema, prefix int) {
	if c.run.tableStats(s) == nil {
		panic(fmt.Sprintf("jstar: query of undeclared table %s", s.Name))
	}
	c.run.slots[c.slot].counts[s.ID()].noteQuery(prefix)
}

// refuseNoGammaQuery panics if s is the registered schema of a -noGamma
// table. It is keyed on the schema itself because unregistered ad-hoc
// schemas share ID 0 with the first declared table.
func (r *Run) refuseNoGammaQuery(s *tuple.Schema) {
	if r.prog.byID[s.ID()] == s {
		panic(fmt.Sprintf("jstar: query of table %s, which -noGamma keeps out of Gamma: it always reads empty (drop the hint or the query)", s.Name))
	}
}

// popTo drops found[base:], clearing it so the scratch pins no tuple.
func (c *Ctx) popTo(base int) {
	clear(c.found[base:])
	c.found = c.found[:base]
}

// allMatches is visit's limit for queries that want every match; it leaves
// room for base+limit not to overflow.
const allMatches = math.MaxInt / 2

// ForEach visits the tuples of table s matching q — the positive query form
// `for (x : get T(prefix, [where])) { ... }`. The matches of q.Prefix are
// collected before q.Where and fn see the first of them, so fn iterates a
// snapshot: it may query and put freely, into table s included, and tuples
// it puts are not visited. A query whose Where rejects most of a large
// prefix range still collects that range; narrow it with the prefix.
func (c *Ctx) ForEach(s *tuple.Schema, q gamma.Query, fn func(t *tuple.Tuple) bool) {
	c.noteQuery(s, len(q.Prefix))
	c.visit(s, q.Prefix, q.Where, allMatches, fn)
}

// GetUniq returns the unique tuple matching q, or nil — `get uniq? T(...)`.
// With more than one match it returns the first in store order (real JStar
// flags this statically when the key does not force uniqueness). Without a
// Where the store walk ends at the first match.
func (c *Ctx) GetUniq(s *tuple.Schema, q gamma.Query) *tuple.Tuple {
	c.noteQuery(s, len(q.Prefix))
	limit := allMatches
	if q.Where == nil {
		limit = 1
	}
	var got *tuple.Tuple
	c.visit(s, q.Prefix, q.Where, limit, func(t *tuple.Tuple) bool {
		got = t
		return false
	})
	return got
}

// Exists reports whether any tuple matches q. `get uniq? T(...) == null` is
// the negative query form; Exists is its complement.
func (c *Ctx) Exists(s *tuple.Schema, q gamma.Query) bool {
	return c.GetUniq(s, q) != nil
}

// Count returns the number of matching tuples (an aggregate query).
func (c *Ctx) Count(s *tuple.Schema, q gamma.Query) int {
	n := 0
	c.ForEach(s, q, func(*tuple.Tuple) bool { n++; return true })
	return n
}

// GetMin returns the matching tuple with the smallest value of the named
// column — `get min T(...)` (an aggregate query).
func (c *Ctx) GetMin(s *tuple.Schema, q gamma.Query, col string) *tuple.Tuple {
	var best *tuple.Tuple
	c.ForEach(s, q, func(t *tuple.Tuple) bool {
		if best == nil || tuple.Compare(t.Get(col), best.Get(col)) < 0 {
			best = t
		}
		return true
	})
	return best
}

// SumInt sums an int column over the matching tuples (aggregate query).
func (c *Ctx) SumInt(s *tuple.Schema, q gamma.Query, col string) int64 {
	var sum int64
	c.ForEach(s, q, func(t *tuple.Tuple) bool { sum += t.Int(col); return true })
	return sum
}

// Println emits debugging/tracing output. As the paper notes (§6.2 fn 8),
// println has side effects, so rule output within one parallel batch is
// unordered; the kosher way to order output is to put Println-like tuples
// and let the Delta ordering sequence them.
func (c *Ctx) Println(args ...any) {
	c.run.out.add(fmt.Sprintln(args...))
}

// Printf is Println's formatted sibling.
func (c *Ctx) Printf(format string, args ...any) {
	c.run.out.add(fmt.Sprintf(format, args...))
}

// GammaTable exposes the raw store of a table, for rules that use the
// typed fast paths of custom data structures (native arrays, §6.4/§6.6) —
// the analogue of generated Java code operating directly on int[][].
func (c *Ctx) GammaTable(s *tuple.Schema) gamma.Store {
	return c.run.gammaDB.Table(s)
}

// Pool returns the run's scheduling pool, or nil in sequential mode. Rules
// use it for the §5.2 "additional parallelism": loops inside a rule with
// independent bodies.
func (c *Ctx) Pool() PoolRef { return c.run.pool }

// Threads reports the run's degree of parallelism.
func (c *Ctx) Threads() int { return c.run.Threads() }
