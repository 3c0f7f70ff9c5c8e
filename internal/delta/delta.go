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
// Each interior node indexes its children with an ascending slice, not a
// balanced tree, because levels are narrow and fill in order. At benchmark
// sizes the most children any node held live at once was 1 on pvwatts and
// matmult, 10 on shortestpath's `seq distance` level (3 of its child
// inserts landed below the level's maximum) and 24 on the median
// application's `par region` level (none out of order). A binary search
// over the live part finds a child, a key past the maximum is appended,
// and TakeMinBatch consumes a level from the front by moving a cursor.
//
// Concurrency contract: the tree has one writer and takes no locks. Put,
// PutBatch, PutSorted and TakeMinBatch are called by the engine
// coordinator between execution steps. Rule tasks never touch the tree —
// their puts are buffered per worker, sorted there, and merged into one
// flush that the coordinator loads at the step boundary. This mirrors the
// paper's execution loop, where a step's tasks all complete before the
// next minimum batch is extracted.
package delta

import (
	"fmt"
	"slices"
	"sync/atomic"

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
// ordered children for tuples that continue to deeper levels.
// children[head:] are the live children in ascending key order; the
// prefix before head holds cleared slots of children already taken, which
// a key below the live minimum reuses and an insert that would grow the
// slice reclaims first. children is nil until the level's first use.
type node struct {
	leaf      leaf
	children  []childEntry
	head      int
	childKind tuple.OrderKind // kind of the level below; fixed at first use
}

// insertChild inserts e at offset j of n's live children, leaving it at
// children[head+j]. A full slice first slides its live children down over
// the taken prefix, and doubles only when there is none, so a level that
// never empties holds at most twice its peak live count. It doubles by
// hand: append would round the capacity up to the allocator's next size
// class.
func (n *node) insertChild(j int, e childEntry) {
	if j == 0 && n.head > 0 {
		n.head--
		n.children[n.head] = e
		return
	}
	if len(n.children) == cap(n.children) {
		live := n.children[n.head:]
		if n.head == 0 {
			live = append(make([]childEntry, 0, max(1, 2*len(live))), live...)
		} else {
			live = n.children[:copy(n.children, live)]
			clear(n.children[len(live):])
		}
		n.children, n.head = live, 0
	}
	n.children = slices.Insert(n.children, n.head+j, e)
}

// popChild clears n's first live child, resetting the slice when the
// level empties.
func (n *node) popChild() {
	n.children[n.head] = childEntry{}
	if n.head++; n.head == len(n.children) {
		n.children, n.head = n.children[:0], 0
	}
}

// Tree is the Delta set. Create with NewSequential.
type Tree struct {
	po   *order.PartialOrder
	root *node
	// size and dups have one writer; they are atomics so Len, Empty and
	// Duplicates may be read from other goroutines while it runs (the
	// engine's public Run.DeltaLen is one such reader).
	size atomic.Int64
	dups atomic.Int64 // duplicates discarded (usage statistics, §1.5)
	// OnDuplicate, if set, receives every tuple the tree discards as a
	// duplicate: those a drain finds while merging a leaf's runs, and those
	// a put path finds when its own dup argument is nil. Set it before the
	// first insert; it is called on the writer's goroutine.
	OnDuplicate func(*tuple.Tuple)
}

// NewSequential returns a Delta tree — the only backend, named for the
// paper's -sequential code generator: the coordinator is the tree's one
// writer, so nothing needs the paper's concurrent one.
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

// leafOf returns the leaf at the end of t's path, creating the path on
// first use. Each level's key is the orderby entry's literal rank as an
// int Value, or t's value in the entry's field.
func (tr *Tree) leafOf(t *tuple.Tuple) *leaf {
	s, n := t.Schema(), tr.root
	for i, e := range s.OrderBy {
		var key tuple.Value
		if e.Kind == tuple.OrderLit {
			key = tuple.Int(int64(tr.po.Rank(e.Lit)))
		} else {
			key = t.Field(s.OrderByColumn(i))
		}
		if n.children == nil {
			n.childKind = e.Kind
		} else if n.childKind != e.Kind {
			panic(fmt.Sprintf("jstar: table %s orderby entry %d (%v) conflicts with sibling tables at the same Delta-tree level (%v)",
				s.Name, i, e.Kind, n.childKind))
		}
		j, found := slices.BinarySearchFunc(n.children[n.head:], key, func(c childEntry, k tuple.Value) int {
			return tuple.Compare(c.key, k)
		})
		if !found {
			n.insertChild(j, childEntry{key: key, nd: &node{}})
		}
		n = n.children[n.head+j].nd
	}
	return &n.leaf
}

// Put inserts t, returning false if an equal tuple was already queued — the
// serial single-tuple path with an eager answer: the leaf's runs are merged
// into one and t is binary-search inserted into it.
func (tr *Tree) Put(t *tuple.Tuple) bool {
	l := tr.leafOf(t)
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

// PutBatch inserts all of ts and returns the number queued, calling dup
// (OnDuplicate when nil) for each tuple discarded on arrival as a
// duplicate. The batch is sorted in place by tuple.ComparePath and handed to
// PutSorted.
//
// PutBatch is the one-shot flush path: it must not race with Put,
// TakeMinBatch, or another PutBatch. The engine's step boundary seals
// per-slot runs pre-sorted in this same order and feeds the merged stream
// through PutSorted, skipping this sort entirely.
func (tr *Tree) PutBatch(ts []*tuple.Tuple, dup func(*tuple.Tuple)) int {
	if len(ts) > 1 {
		slices.SortFunc(ts, tuple.ComparePath)
	}
	return tr.PutSorted(ts, dup)
}

// PutSorted is PutBatch for a batch already sorted by tuple.ComparePath
// (the order sealed slot runs and their k-way merge produce). It inserts
// the batch segment by segment: a segment is a maximal strictly ascending
// stretch of tuples on one path, and costs one descent from the root and
// one copy into its leaf. Sortedness is a locality contract, not a
// correctness one — out-of-order input still inserts correctly, as more and
// shorter segments that the leaves merge when they drain.
func (tr *Tree) PutSorted(ts []*tuple.Tuple, dup func(*tuple.Tuple)) int {
	added := 0
	discard := func(t *tuple.Tuple) { tr.discard(t, dup) }
	for lo := 0; lo < len(ts); {
		t := ts[lo]
		hi := lo + 1
		for hi < len(ts) && tuple.SamePath(t, ts[hi]) && tuple.ComparePath(ts[hi-1], ts[hi]) < 0 {
			hi++
		}
		added += tr.leafOf(t).add(ts[lo:hi], discard)
		lo = hi
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
	if n.childKind == tuple.OrderPar {
		// A par level is one equivalence class: drain the entire subtree.
		return tr.drainAll(n, nil)
	}
	for n.head < len(n.children) {
		c := n.children[n.head].nd
		got := tr.takeMin(c)
		if empty(c) {
			n.popChild()
		}
		if len(got) > 0 {
			return got
		}
		// Child was an empty shell (already drained); removed above, retry.
	}
	return nil
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
	for _, e := range n.children[n.head:] {
		buf = tr.drainAll(e.nd, buf)
	}
	clear(n.children[n.head:])
	n.children, n.head = n.children[:0], 0
	return buf
}

func empty(n *node) bool {
	return len(n.leaf.runs) == 0 && n.head == len(n.children)
}
