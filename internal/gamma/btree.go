package gamma

import (
	"sync"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// treeNodeMax is the most tuples one B-tree node holds. It is a constant,
// not an option, set from BenchmarkTreeNodeMax — a fresh store taking 64 k
// 4-int tuples as 256-tuple sorted runs, then one-column prefix Selects of
// 64 matches each — on the 2-vCPU reference box (go1.24.0, medians of 7
// runs of 30 stores, 64-byte word-payload tuples, InsertBatch entering a
// run leaf by leaf):
//
//	node max   ascending runs   random runs   select
//	   32        80 ns/tuple     591 ns/tuple  1.7 µs/query
//	   64        64              493           1.6
//	  128        64              491           1.5
//
// Before the leaf-by-leaf batch path, when each tuple descended from the
// root, the ascending column read 101, 81 and 76 ns, measured back to back
// on the same box. Runs past the stored maximum favour wide nodes, since a
// leaf is one descent; runs landing inside the table barely care, because
// an insert there shifts half a leaf and every compare of a node's binary
// search is a cache miss on a scattered tuple. 64 is within 10 % of the
// best in every column.
const treeNodeMax = 64

// treeStore is the one ordered Gamma store: a B-tree of tuples in
// tuple.CompareSchemaFields order — the precomputed 64-bit key first, then
// the fields — which within one table is exactly CompareFields order, so
// Scan and a prefix Select walk the table in field order. It is the
// default for every table, with or without a pool: the paper's TreeSet
// (§5), cheap enough to stand in for its ConcurrentSkipListSet too. One
// RWMutex guards it; InsertBatch takes it once per run of tuples.
type treeStore struct {
	mu   sync.RWMutex
	root *treeNode
	n    int
	max  int // tuples per node: treeNodeMax outside BenchmarkTreeNodeMax
}

// treeNode is a B-tree node: up to max tuples in ascending order and, in an
// inner node, one more child than tuples. Gamma never deletes, so nodes
// never merge; a node may hold few tuples, and an inner node none at all
// (one child) after a split at the right edge.
type treeNode struct {
	items    []*tuple.Tuple
	children []*treeNode // nil in a leaf
}

// NewTreeStore returns the ordered B-tree store for s.
func NewTreeStore(s *tuple.Schema) Store { return newTreeStore(treeNodeMax) }

func newTreeStore(max int) *treeStore {
	return &treeStore{root: &treeNode{items: make([]*tuple.Tuple, 0, max)}, max: max}
}

func (st *treeStore) StoreKind() string { return "tree" }

// search returns t's position in n and whether n holds an equal tuple. It
// compares with the last tuple first, so a tuple past n's maximum — each
// tuple of an ascending run landing at the right edge — costs one compare.
func (n *treeNode) search(t *tuple.Tuple) (int, bool) {
	hi := len(n.items) - 1
	if hi < 0 {
		return 0, false
	}
	switch c := tuple.CompareSchemaFields(n.items[hi], t); {
	case c < 0:
		return hi + 1, false
	case c == 0:
		return hi, true
	}
	lo := 0
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		switch c := tuple.CompareSchemaFields(n.items[m], t); {
		case c < 0:
			lo = m + 1
		case c > 0:
			hi = m
		default:
			return m, true
		}
	}
	return lo, false
}

// insert adds t unless an equal tuple is stored. It descends once from the
// root, splitting each full node before entering it, so it never walks
// back up. It also reports where the descent ended, for InsertBatch: the
// leaf that holds t (nil when an equal tuple sits in an inner node), t's
// position in it, and the leaf's upper fence — the separator above it in
// the nearest ancestor, nil (+∞) on the right edge.
func (st *treeStore) insert(t *tuple.Tuple) (ok bool, leaf *treeNode, at int, fence *tuple.Tuple) {
	if len(st.root.items) == st.max {
		old := st.root
		st.root = &treeNode{children: append(make([]*treeNode, 0, st.max+1), old)}
		st.split(st.root, 0, t)
	}
	n := st.root
	for {
		i, found := n.search(t)
		if n.children == nil {
			if found {
				return false, n, i, fence
			}
			n.items = insertAt(n.items, i, t)
			st.n++
			return true, n, i, fence
		}
		if found {
			return false, nil, 0, nil
		}
		if len(n.children[i].items) == st.max {
			st.split(n, i, t)
			switch c := tuple.CompareSchemaFields(n.items[i], t); {
			case c == 0:
				return false, nil, 0, nil
			case c < 0:
				i++
			}
		}
		if i < len(n.items) {
			fence = n.items[i]
		}
		n = n.children[i]
	}
}

// split divides parent's full child i around one of its tuples, which moves
// up into parent at position i. The child splits in half, unless t sorts
// after all of it: then the child keeps all but its last tuple, which moves
// up, and t will start the new right sibling — so an ascending run fills
// its nodes instead of leaving each half empty.
func (st *treeStore) split(parent *treeNode, i int, t *tuple.Tuple) {
	c := parent.children[i]
	at := len(c.items) / 2
	if tuple.CompareSchemaFields(c.items[len(c.items)-1], t) < 0 {
		at = len(c.items) - 1
	}
	right := &treeNode{items: append(make([]*tuple.Tuple, 0, st.max), c.items[at+1:]...)}
	if c.children != nil {
		right.children = append(make([]*treeNode, 0, st.max+1), c.children[at+1:]...)
		clear(c.children[at+1:])
		c.children = c.children[:at+1]
	}
	parent.items = insertAt(parent.items, i, c.items[at])
	parent.children = insertAt(parent.children, i+1, right)
	clear(c.items[at:])
	c.items = c.items[:at]
}

// insertAt inserts x at position i of s, within s's capacity.
func insertAt[T any](s []T, i int, x T) []T {
	s = append(s, x)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

func (st *treeStore) Insert(t *tuple.Tuple) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	ok, _, _, _ := st.insert(t)
	return ok
}

// InsertBatch takes the lock once for the whole run of tuples — the Gamma
// half of the engine's batched put path — and enters it leaf by leaf. One
// descent from the root finds the leaf of a tuple and that leaf's upper
// fence; each following tuple that sorts after the previous one and below
// the fence goes into the same leaf, found by a search forward from the
// previous tuple's position, while the leaf has room. A full leaf, a tuple
// at or past the fence, or one out of order takes the ordinary descent. The
// rightmost leaf's fence is +∞, so a run ascending past the stored maximum
// appends at one compare per tuple and descends once per leaf it fills.
func (st *treeStore) InsertBatch(ts []*tuple.Tuple, live []*tuple.Tuple) []*tuple.Tuple {
	st.mu.Lock()
	defer st.mu.Unlock()
	var (
		leaf  *treeNode    // leaf of the previous tuple, nil to descend
		next  int          // leaf position just past the previous tuple
		fence *tuple.Tuple // leaf's upper fence, nil for +∞
	)
	for _, t := range ts {
		if leaf != nil && len(leaf.items) < st.max &&
			tuple.CompareSchemaFields(leaf.items[next-1], t) < 0 &&
			(fence == nil || tuple.CompareSchemaFields(t, fence) < 0) {
			i, found := leaf.searchFrom(next, t)
			next = i + 1
			if !found {
				leaf.items = insertAt(leaf.items, i, t)
				st.n++
				live = append(live, t)
			}
			continue
		}
		ok, l, i, f := st.insert(t)
		if ok {
			live = append(live, t)
		}
		leaf, next, fence = l, i+1, f
	}
	return live
}

// searchFrom is search over n.items[from:], for a tuple known to sort after
// n.items[from-1]: it answers a tuple that goes at from with one compare.
func (n *treeNode) searchFrom(from int, t *tuple.Tuple) (int, bool) {
	lo, hi := from, len(n.items)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if lo == from {
			m = lo // probe the next slot first: the run's next tuple is usually there
		}
		switch c := tuple.CompareSchemaFields(n.items[m], t); {
		case c < 0:
			lo = m + 1
		case c > 0:
			hi = m
		default:
			return m, true
		}
	}
	return lo, false
}

func (st *treeStore) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.n
}

func (st *treeStore) Scan(fn func(*tuple.Tuple) bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	st.root.scan(fn)
}

// scan visits n's subtree in order until fn returns false, reporting
// whether it reached the end.
func (n *treeNode) scan(fn func(*tuple.Tuple) bool) bool {
	for i, t := range n.items {
		if n.children != nil && !n.children[i].scan(fn) || !fn(t) {
			return false
		}
	}
	return n.children == nil || n.children[len(n.items)].scan(fn)
}

// Select walks the range of tuples whose leading fields equal q.Prefix: a
// binary search per level for the range's start, then in order up to the
// first tuple past it — O(log n + k), allocating nothing.
func (st *treeStore) Select(q Query, fn func(*tuple.Tuple) bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	st.root.selectRange(q, fn)
}

// selectRange visits the tuples of n's subtree in q's prefix range, in
// order, until fn returns false or the walk passes the range; it reports
// whether the walk may go on after n.
func (n *treeNode) selectRange(q Query, fn func(*tuple.Tuple) bool) bool {
	lo, hi := 0, len(n.items)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if n.items[m].ComparePrefix(q.Prefix) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for i := lo; ; i++ {
		if n.children != nil && !n.children[i].selectRange(q, fn) {
			return false
		}
		if i == len(n.items) {
			return true
		}
		t := n.items[i]
		if t.ComparePrefix(q.Prefix) > 0 || q.whereOK(t) && !fn(t) {
			return false
		}
	}
}
