// Package delta implements the Delta set — the temporary area where newly
// put tuples await processing (paper §3, §5, Fig 3).
//
// The Delta set is organised as a single tree containing tuples from many
// tables, sorted lexicographically by the orderby lists of those tables:
// level i of the tree is sorted by the ith entries of the orderby lists.
// A literal level is ordered by the program's `order` declarations, a
// `seq f` level by the value of field f, and a `par f` level is unordered
// (its whole subtree is one parallel equivalence class). The leaves hold
// sets of tuples that are all equivalent under the causality ordering, so
// they can be executed in parallel ("all-minimums" strategy).
//
// The tree doubles as a multi-level priority queue with duplicate
// elimination — a plain priority queue is not sufficient because duplicate
// tuples must be discarded before they fire (paper footnote 5). Each leaf
// keeps its tuples as sorted runs rather than a hash set: a flush arrives
// sorted, so a duplicate is either adjacent on arrival or adjacent once the
// leaf's runs are merged at drain, and the drained class is already in the
// order the step fires it in.
//
// Concurrency contract: the tree has one writer at a time. Put, PutBatch,
// PutSorted and TakeMinBatch are called by the engine coordinator between
// execution steps; the only concurrency is PutPart over the disjoint
// partitions SplitBulk hands out. Rule tasks never touch the tree — their
// puts are buffered per worker, sorted there, and merged into one flush at
// the step boundary. This mirrors the paper's execution loop, where a
// step's tasks all complete before the next minimum batch is extracted.
package delta

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/jstar-lang/jstar/internal/llrb"
	"github.com/jstar-lang/jstar/internal/order"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// childEntry is one ordered child of an interior Delta-tree node, keyed by
// the resolved orderby component at that level (literal rank as an int
// Value, or the tuple's field value).
type childEntry struct {
	key tuple.Value
	nd  *node
}

func compareChildren(a, b childEntry) int { return tuple.Compare(a.key, b.key) }

// leaf holds the tuples that end at one tree node — one causal equivalence
// class — as sorted runs. Every run is strictly ascending in
// tuple.ComparePath, which within one leaf is the engine's step order
// (tuple.CompareSchemaFields), and is owned by the leaf: flush buffers are
// recycled by the caller, so segments are copied in, never aliased. A
// flush's segment extends the last run when it sorts after it and starts a
// new run otherwise, so a leaf filled by one flush — or by flushes that
// happen to arrive in order — drains without a merge. A duplicate of the
// last run's tail is dropped on arrival; one hiding inside an earlier run
// is dropped when the runs are merged at drain.
type leaf struct {
	runs [][]*tuple.Tuple
}

// add appends seg (strictly ascending, all on this leaf's path), reporting
// a leading duplicate of the current tail to dup, and returns the number
// of tuples queued.
func (l *leaf) add(seg []*tuple.Tuple, dup func(*tuple.Tuple)) int {
	if k := len(l.runs); k > 0 {
		last := l.runs[k-1]
		tail := last[len(last)-1]
		c := tuple.ComparePath(tail, seg[0])
		if c == 0 && tail.Equal(seg[0]) {
			if dup != nil {
				dup(seg[0])
			}
			if seg = seg[1:]; len(seg) == 0 {
				return 0
			}
			c = -1
		}
		if c < 0 {
			l.runs[k-1] = append(last, seg...)
			return len(seg)
		}
	}
	l.runs = append(l.runs, slices.Clone(seg))
	return len(seg)
}

// collapse merges the leaf's runs into one, dropping cross-run duplicates
// through dup.
func (l *leaf) collapse(dup func(*tuple.Tuple)) {
	if len(l.runs) < 2 {
		return
	}
	n := 0
	for _, r := range l.runs {
		n += len(r)
	}
	merged := MergeRuns(l.runs, make([]*tuple.Tuple, 0, n), dup)
	clear(l.runs)
	l.runs = append(l.runs[:0], merged)
}

// drain removes and returns the leaf's tuples as one run in step order,
// ownership included: zero-copy when the leaf holds a single run, a k-way
// merge otherwise. The leaf must be non-empty.
func (l *leaf) drain(dup func(*tuple.Tuple)) []*tuple.Tuple {
	l.collapse(dup)
	run := l.runs[0]
	l.runs[0] = nil
	l.runs = l.runs[:0]
	return run
}

// node is one Delta-tree node: tuples whose orderby list ends here, plus
// ordered children (the Java TreeMap analogue) for tuples that continue to
// deeper levels.
type node struct {
	leaf      leaf
	children  *llrb.Tree[childEntry]
	childKind tuple.OrderKind // kind of the level below; fixed at first use
}

// Tree is the Delta set. Create with NewSequential.
type Tree struct {
	po   *order.PartialOrder
	root *node
	size atomic.Int64 // atomics: PutPart runs concurrently over disjoint parts
	dups atomic.Int64 // duplicates discarded (usage statistics, §1.5)
	// OnDuplicate, if set, receives every tuple the tree discards as a
	// duplicate: those a drain finds while merging a leaf's runs, and those
	// a put path finds when its own dup argument is nil. Set it before the
	// first insert; PutPart may call it from several goroutines at once.
	OnDuplicate func(*tuple.Tuple)
	// splitMu orders the level-1 child-map mutations of range-split bulk
	// parts (BulkPart.locked): the parts own disjoint key ranges, so only
	// the shared parent's map structure needs the short lock — everything
	// below a level-1 node stays lock-free private work.
	splitMu sync.Mutex
}

// NewSequential returns a Delta tree backed by red-black trees, matching the
// -sequential code generator's TreeMap choice — the only backend: no rule
// task inserts into the tree, so nothing needs the paper's concurrent one.
func NewSequential(po *order.PartialOrder) *Tree {
	return &Tree{po: po, root: &node{}}
}

// Len returns the number of queued tuples. A tuple put again by a later
// flush while its first copy is still queued counts twice until the drain
// that merges the leaf's runs discards it, so Len is an upper bound that is
// exact at 0: Len() == 0 if and only if Empty().
func (tr *Tree) Len() int { return int(tr.size.Load()) }

// Empty reports whether no tuples are queued.
func (tr *Tree) Empty() bool { return tr.size.Load() == 0 }

// Duplicates returns how many inserts the tree itself discarded as
// duplicates (on arrival or at drain). Same-step duplicates are dropped by
// the engine's k-way merge before the tree sees them and show up only in
// the engine's per-table counters, not here.
func (tr *Tree) Duplicates() int64 { return tr.dups.Load() }

// discard accounts one duplicate found on arrival and reports it to dup,
// or to OnDuplicate when the caller passed none.
func (tr *Tree) discard(t *tuple.Tuple, dup func(*tuple.Tuple)) {
	tr.dups.Add(1)
	if dup == nil {
		dup = tr.OnDuplicate
	}
	if dup != nil {
		dup(t)
	}
}

// discardQueued is discard for a duplicate that was already counted in
// size: the copy a drain-time merge drops.
func (tr *Tree) discardQueued(t *tuple.Tuple) {
	tr.size.Add(-1)
	tr.discard(t, nil)
}

// descend returns n's child on level i of t's path, creating it (and the
// level's child map) on first use.
func (tr *Tree) descend(n *node, t *tuple.Tuple, i int) *node {
	key, kind := tr.resolveKey(t, i)
	if n.children == nil {
		n.children = llrb.New(compareChildren)
		n.childKind = kind
	}
	if n.childKind != kind {
		panic(fmt.Sprintf("jstar: table %s orderby entry %d (%v) conflicts with sibling tables at the same Delta-tree level (%v)",
			t.Schema().Name, i, kind, n.childKind))
	}
	if e, ok := n.children.GetEqual(childEntry{key: key}); ok {
		return e.nd
	}
	nd := &node{}
	n.children.Insert(childEntry{key: key, nd: nd})
	return nd
}

// Put inserts t, returning false if an equal tuple was already queued — the
// serial single-tuple path with an eager answer: the leaf's runs are merged
// into one and t is binary-search inserted into it.
func (tr *Tree) Put(t *tuple.Tuple) bool {
	n := tr.root
	for i := range t.Schema().OrderBy {
		n = tr.descend(n, t, i)
	}
	l := &n.leaf
	l.collapse(tr.discardQueued)
	if len(l.runs) == 0 {
		l.runs = append(l.runs, nil)
	}
	run := l.runs[0]
	i, found := slices.BinarySearchFunc(run, t, tuple.ComparePath)
	if found && run[i].Equal(t) {
		tr.discard(t, nil)
		return false
	}
	l.runs[0] = slices.Insert(run, i, t)
	tr.size.Add(1)
	return true
}

// resolveKey returns the child-map key and kind for orderby level i of t's
// schema.
func (tr *Tree) resolveKey(t *tuple.Tuple, i int) (tuple.Value, tuple.OrderKind) {
	s := t.Schema()
	e := s.OrderBy[i]
	if e.Kind == tuple.OrderLit {
		return tuple.Int(int64(tr.po.Rank(e.Lit))), tuple.OrderLit
	}
	return t.Field(s.OrderByColumn(i)), e.Kind
}

// PutBatch inserts all of ts and returns the number queued, calling dup
// (OnDuplicate when nil) for each tuple discarded on arrival as a
// duplicate. The batch is sorted in place by tuple.ComparePath and handed to
// PutSorted.
//
// PutBatch is the one-shot flush path: it must not race with Put,
// TakeMinBatch, or another PutBatch. The engine's step boundary seals
// per-slot runs pre-sorted in this same order and feeds the merged stream
// through PutSorted/PutPart, skipping this sort entirely.
func (tr *Tree) PutBatch(ts []*tuple.Tuple, dup func(*tuple.Tuple)) int {
	if len(ts) > 1 {
		slices.SortFunc(ts, tuple.ComparePath)
	}
	return tr.PutSorted(ts, dup)
}

// PutSorted is PutBatch for a batch already sorted by tuple.ComparePath
// (the order sealed slot runs and their k-way merge produce): every
// ascending stretch of tuples on one path descends the tree once and is
// copied into its leaf as one segment. Sortedness is a locality contract,
// not a correctness one — out-of-order input still inserts correctly, as
// more and shorter segments that the leaves merge when they drain.
func (tr *Tree) PutSorted(ts []*tuple.Tuple, dup func(*tuple.Tuple)) int {
	added := tr.putRun(tr.root, 0, ts, dup, noLock)
	tr.size.Add(int64(added))
	return added
}

// noLock disables putRun's splitMu protection (the single-loader paths).
const noLock = -1

// putRun inserts one run of tuples segment by segment, descending from
// start (the node reached after resolving the first `level` path components
// of every tuple in the run). A segment is a maximal strictly ascending
// stretch of tuples on one path: it costs one descent and one copy into the
// leaf. spine[i] caches the node reached after level start+i of the
// previous segment's path, so consecutive segments re-descend only below
// their longest shared prefix. Returns the number queued; the caller folds
// it into tr.size.
//
// lockAt >= 0 marks the one descent level where this run shares its parent
// node's child map with concurrently loading range-split siblings
// (BulkPart.locked): mutations at exactly that level take tr.splitMu.
// Spine reuse means the lock is paid once per distinct key at that level,
// not once per tuple; all deeper levels are private to this part's key
// range and stay lock-free.
func (tr *Tree) putRun(start *node, level int, ts []*tuple.Tuple, dup func(*tuple.Tuple), lockAt int) int {
	added := 0
	discard := func(t *tuple.Tuple) { tr.discard(t, dup) }
	var spine []*node
	var prev *tuple.Tuple
	for lo := 0; lo < len(ts); {
		t := ts[lo]
		hi := lo + 1
		for hi < len(ts) && tuple.SamePath(t, ts[hi]) && tuple.ComparePath(ts[hi-1], ts[hi]) < 0 {
			hi++
		}
		depth := len(t.Schema().OrderBy)
		shared := level
		if prev != nil {
			shared = tr.sharedPrefix(prev, t, level, min(level+len(spine), depth))
		}
		n := start
		if shared > level {
			n = spine[shared-level-1]
		}
		spine = spine[:shared-level]
		for i := shared; i < depth; i++ {
			if i == lockAt {
				n = tr.descendLocked(n, t, i)
			} else {
				n = tr.descend(n, t, i)
			}
			spine = append(spine, n)
		}
		added += n.leaf.add(ts[lo:hi], discard)
		prev = t
		lo = hi
	}
	return added
}

func (tr *Tree) descendLocked(n *node, t *tuple.Tuple, i int) *node {
	tr.splitMu.Lock()
	defer tr.splitMu.Unlock()
	return tr.descend(n, t, i)
}

// sharedPrefix returns the first path level in [from, limit) on which a and
// b part ways, or limit if there is none. Tuples of one schema share every
// literal level by construction, so only their seq/par columns are read.
func (tr *Tree) sharedPrefix(a, b *tuple.Tuple, from, limit int) int {
	i := from
	if s := a.Schema(); s == b.Schema() {
		for ; i < limit; i++ {
			if col := s.OrderByColumn(i); col >= 0 && tuple.Compare(a.Field(col), b.Field(col)) != 0 {
				break
			}
		}
		return i
	}
	for ; i < limit; i++ {
		ka, kinda := tr.resolveKey(a, i)
		kb, kindb := tr.resolveKey(b, i)
		if kinda != kindb || tuple.Compare(ka, kb) != 0 {
			break
		}
	}
	return i
}

// BulkPart is one independently loadable partition of a flush batch: runs
// of tuples whose Delta-tree paths all pass through (or end at) one
// pre-created node, so concurrent PutPart calls on distinct parts never
// mutate a shared interior map. Produced by SplitBulk.
type BulkPart struct {
	start *node
	level int
	runs  [][]*tuple.Tuple
	// locked marks a range-split part: its runs share start's child map
	// with sibling parts covering other key ranges, so PutPart guards
	// mutations at exactly that level with Tree.splitMu.
	locked bool
}

// Len returns the number of tuples in the part.
func (p *BulkPart) Len() int {
	n := 0
	for _, r := range p.runs {
		n += len(r)
	}
	return n
}

// SplitBulk partitions a ComparePath-sorted flush into parts that may be
// bulk-loaded concurrently (one PutPart call per part, any goroutine
// each): the top Delta-tree level is resolved and its child nodes are
// created here, on the caller, so the parts only ever touch disjoint
// subtrees below them. Tables sharing a top-level literal land in the same
// part, and tables whose paths end at the root form a part of their own, so
// no two parts ever touch one leaf.
//
// It returns nil when the batch cannot be partitioned — a data-dependent
// (seq/par) top level, where sibling tables' key spaces can alias — in
// which case the caller should fall back to PutSorted. Must not race with
// Put/TakeMinBatch, like every bulk path.
func (tr *Tree) SplitBulk(ts []*tuple.Tuple) []BulkPart {
	return tr.SplitBulkN(ts, 0)
}

// rangeSplitMin is the smallest dominant part worth range-splitting: below
// it, the quantile scan plus per-key splitMu traffic costs more than the
// serial load it would parallelise.
const rangeSplitMin = 512

// SplitBulkN is SplitBulk with intra-table sharding: after the per-top-node
// partition, any part that dominates the flush (a single hot table, or a
// literal-sharing group) and is ordered by a data-dependent level-1 key is
// further split into up to `width` key ranges, so the hot subtree loads in
// parallel instead of becoming the serial chokepoint. width <= 1 disables
// the refinement (identical to SplitBulk). Sub-parts of a range split are
// marked locked — PutPart serialises only their level-1 child-map touches.
func (tr *Tree) SplitBulkN(ts []*tuple.Tuple, width int) []BulkPart {
	parts := tr.splitBulk(ts)
	if width <= 1 || len(parts) == 0 {
		return parts
	}
	out := parts[:0:0]
	for _, p := range parts {
		if sub := tr.rangeSplit(p, width, len(ts)); sub != nil {
			out = append(out, sub...)
		} else {
			out = append(out, p)
		}
	}
	return out
}

func (tr *Tree) splitBulk(ts []*tuple.Tuple) []BulkPart {
	var parts []BulkPart
	byNode := make(map[*node]int)
	for lo := 0; lo < len(ts); {
		s := ts[lo].Schema()
		hi := lo + 1
		for hi < len(ts) && ts[hi].Schema() == s {
			hi++
		}
		run := ts[lo:hi:hi]
		lo = hi
		var start *node
		var level int
		if len(s.OrderBy) == 0 {
			start, level = tr.root, 0
		} else {
			if s.OrderBy[0].Kind != tuple.OrderLit {
				return nil // data-dependent top level: not partitionable
			}
			start, level = tr.descend(tr.root, run[0], 0), 1
		}
		if i, ok := byNode[start]; ok {
			parts[i].runs = append(parts[i].runs, run)
			continue
		}
		byNode[start] = len(parts)
		parts = append(parts, BulkPart{start: start, level: level, runs: [][]*tuple.Tuple{run}})
	}
	return parts
}

// rangeSplit refines one hot part into disjoint level-1 key ranges. It
// returns nil when the part is not worth splitting or not splittable: a
// non-dominant or small part, a literal level-1 (keys are shared partial-
// order ranks the runs are not sorted by), or a split that would leave
// fewer than two non-empty ranges. Every run in a splittable part is
// ComparePath-sorted, which within one schema means sorted by its first
// seq/par orderby column — so range boundaries are binary searches and
// equal keys (hence set-semantics duplicates) never straddle a boundary.
func (tr *Tree) rangeSplit(p BulkPart, width, total int) []BulkPart {
	if p.level != 1 || p.Len() < rangeSplitMin || p.Len()*2 < total {
		return nil
	}
	// The longest run supplies the quantile boundaries; depth-1 schemas end
	// at the shared start node, whose leaf therefore belongs to one sub-part
	// alone: they all ride in the first.
	var longest []*tuple.Tuple
	for _, run := range p.runs {
		s := run[0].Schema()
		if len(s.OrderBy) < 2 {
			continue
		}
		if k := s.OrderBy[1].Kind; k != tuple.OrderSeq && k != tuple.OrderPar {
			return nil
		}
		if len(run) > len(longest) {
			longest = run
		}
	}
	if len(longest) < 2 {
		return nil
	}
	key := func(t *tuple.Tuple) tuple.Value {
		return t.Field(t.Schema().OrderByColumn(1))
	}
	// Quantile boundary keys, deduplicated: sub-part i covers the half-open
	// range [bounds[i-1], bounds[i]), so tuples with equal keys always land
	// together. tuple.Compare totally orders values across schemas' column
	// kinds, the same order the level-1 child map uses.
	var bounds []tuple.Value
	for j := 1; j < width; j++ {
		b := key(longest[j*len(longest)/width])
		if len(bounds) == 0 || tuple.Compare(bounds[len(bounds)-1], b) < 0 {
			bounds = append(bounds, b)
		}
	}
	if len(bounds) == 0 {
		return nil
	}
	sub := make([]BulkPart, len(bounds)+1)
	for i := range sub {
		sub[i] = BulkPart{start: p.start, level: p.level, locked: true}
	}
	for _, run := range p.runs {
		if len(run[0].Schema().OrderBy) < 2 {
			sub[0].runs = append(sub[0].runs, run)
			continue
		}
		lo := 0
		for bi, b := range bounds {
			hi := lo + sort.Search(len(run)-lo, func(i int) bool {
				return tuple.Compare(key(run[lo+i]), b) >= 0
			})
			if hi > lo {
				sub[bi].runs = append(sub[bi].runs, run[lo:hi:hi])
			}
			lo = hi
		}
		if lo < len(run) {
			sub[len(bounds)].runs = append(sub[len(bounds)].runs, run[lo:len(run):len(run)])
		}
	}
	out := sub[:0]
	for _, q := range sub {
		if len(q.runs) > 0 {
			out = append(out, q)
		}
	}
	if len(out) < 2 {
		return nil
	}
	return out
}

// PutPart bulk-loads one SplitBulk partition. Distinct parts of the same
// split may run concurrently (the sharded flush path); the usual bulk
// contract still holds against Put/TakeMinBatch. dup (OnDuplicate when
// nil) is called from the loading goroutine and must be safe under the
// split's concurrency.
func (tr *Tree) PutPart(p BulkPart, dup func(*tuple.Tuple)) int {
	lockAt := noLock
	if p.locked {
		lockAt = p.level
	}
	added := 0
	for _, run := range p.runs {
		added += tr.putRun(p.start, p.level, run, dup, lockAt)
	}
	tr.size.Add(int64(added))
	return added
}

// TakeMinBatch removes and returns the minimal causal equivalence class:
// all tuples that may execute in parallel at this step. It returns nil when
// the tree is empty. A class held by a single leaf comes back in step order
// (tuple.CompareSchemaFields), duplicate-free, and — when the leaf holds one
// run — without a copy; a `par` subtree is the concatenation of its leaves
// in child order. The caller owns the returned slice. Must not race with
// the put paths (see the package contract).
func (tr *Tree) TakeMinBatch() []*tuple.Tuple {
	if tr.Empty() {
		return nil
	}
	batch := tr.takeMin(tr.root)
	tr.size.Add(int64(-len(batch)))
	return batch
}

func (tr *Tree) takeMin(n *node) []*tuple.Tuple {
	// Tuples ending at this node come before anything deeper.
	if len(n.leaf.runs) > 0 {
		return n.leaf.drain(tr.discardQueued)
	}
	if n.children == nil {
		return nil
	}
	if n.childKind == tuple.OrderPar {
		// A par level is one equivalence class: drain the entire subtree.
		return tr.drainAll(n, nil)
	}
	for {
		e, ok := n.children.Min()
		if !ok {
			return nil
		}
		got := tr.takeMin(e.nd)
		if empty(e.nd) {
			n.children.Delete(e)
		}
		if len(got) > 0 {
			return got
		}
		// Child was an empty shell (already drained); removed above, retry.
	}
}

// drainAll removes every tuple in the subtree rooted at n, appending to buf.
func (tr *Tree) drainAll(n *node, buf []*tuple.Tuple) []*tuple.Tuple {
	if len(n.leaf.runs) > 0 {
		run := n.leaf.drain(tr.discardQueued)
		if buf == nil {
			buf = run
		} else {
			buf = append(buf, run...)
		}
	}
	if n.children == nil {
		return buf
	}
	n.children.Ascend(func(e childEntry) bool {
		buf = tr.drainAll(e.nd, buf)
		return true
	})
	n.children.Clear()
	return buf
}

func empty(n *node) bool {
	return len(n.leaf.runs) == 0 && (n.children == nil || n.children.Len() == 0)
}

// PeekMinKey returns the causal key of the current minimal class, for
// logging and visualisation. It returns false when empty.
func (tr *Tree) PeekMinKey() (order.Key, bool) {
	var comps []order.Component
	n := tr.root
	for len(n.leaf.runs) == 0 && n.children != nil {
		e, ok := n.children.Min()
		if !ok {
			break
		}
		switch n.childKind {
		case tuple.OrderLit:
			comps = append(comps, order.Component{Kind: tuple.OrderLit, Rank: int(e.key.AsInt())})
		default:
			comps = append(comps, order.Component{Kind: n.childKind, Val: e.key})
		}
		n = e.nd
	}
	if len(comps) == 0 && tr.Empty() {
		return order.Key{}, false
	}
	return order.Key{Components: comps}, true
}

// Walk visits every queued tuple until fn returns false; used by the graph
// visualiser. A tuple queued by two flushes is visited once per copy until
// the drain that merges its leaf's runs discards the second.
func (tr *Tree) Walk(fn func(t *tuple.Tuple) bool) {
	tr.walk(tr.root, fn)
}

func (tr *Tree) walk(n *node, fn func(t *tuple.Tuple) bool) bool {
	for _, run := range n.leaf.runs {
		for _, t := range run {
			if !fn(t) {
				return false
			}
		}
	}
	if n.children == nil {
		return true
	}
	ok := true
	n.children.Ascend(func(e childEntry) bool {
		ok = tr.walk(e.nd, fn)
		return ok
	})
	return ok
}
