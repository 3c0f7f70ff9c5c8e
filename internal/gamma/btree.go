package gamma

import (
	"sync"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// treeNodeMax is the most tuples one B-tree node holds. It is a constant,
// not an option, set from BenchmarkTreeNodeMax — a fresh store taking 64 k
// 4-int tuples as 256-tuple sorted runs, then one-column prefix Selects of
// 64 matches each — on the 2-vCPU reference box (go1.24.0, medians of 7
// runs of 30 stores):
//
//	node max   ascending runs   random runs   select
//	   32       119 ns/tuple     836 ns/tuple  3.4 µs/query
//	   64       101              831           3.2
//	  128        92              889           3.1
//
// Runs past the stored maximum favour wide nodes; runs landing inside the
// table do not, since an insert shifts half a leaf and every compare of a
// node's binary search is a cache miss on a scattered tuple. 64 is within
// 10 % of the best in every column.
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
// back up.
func (st *treeStore) insert(t *tuple.Tuple) bool {
	if len(st.root.items) == st.max {
		old := st.root
		st.root = &treeNode{children: append(make([]*treeNode, 0, st.max+1), old)}
		st.split(st.root, 0, t)
	}
	n := st.root
	for {
		i, found := n.search(t)
		if found {
			return false
		}
		if n.children == nil {
			n.items = insertAt(n.items, i, t)
			st.n++
			return true
		}
		if len(n.children[i].items) == st.max {
			st.split(n, i, t)
			switch c := tuple.CompareSchemaFields(n.items[i], t); {
			case c == 0:
				return false
			case c < 0:
				i++
			}
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
	return st.insert(t)
}

// InsertBatch takes the lock once for the whole run of tuples — the Gamma
// half of the engine's batched put path. A run ascending past the stored
// maximum descends the right edge at one compare per level and appends.
func (st *treeStore) InsertBatch(ts []*tuple.Tuple, live []*tuple.Tuple) []*tuple.Tuple {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, t := range ts {
		if st.insert(t) {
			live = append(live, t)
		}
	}
	return live
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
