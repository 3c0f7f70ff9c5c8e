package delta

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"github.com/jstar-lang/jstar/internal/order"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// fuzzShapes are the schema sets FuzzDeltaTree runs over, each with
// columns (t, v): a literal level over a seq level, with a table ending at
// the literal and one continuing a level deeper; two seq levels; and a
// literal level over a par level, with a seq level below one par subtree.
var fuzzShapes = []func() (*order.PartialOrder, []*tuple.Schema){
	func() (*order.PartialOrder, []*tuple.Schema) { // lit/seq
		return fuzzSchemas([]tuple.OrderEntry{tuple.Lit("L1"), tuple.Seq("t")},
			[]tuple.OrderEntry{tuple.Lit("L1"), tuple.Seq("t")},
			[]tuple.OrderEntry{tuple.Lit("L2"), tuple.Seq("t"), tuple.Seq("v")},
			[]tuple.OrderEntry{tuple.Lit("L1")})
	},
	func() (*order.PartialOrder, []*tuple.Schema) { // seq/seq
		return fuzzSchemas([]tuple.OrderEntry{tuple.Seq("t"), tuple.Seq("v")},
			[]tuple.OrderEntry{tuple.Seq("t")})
	},
	func() (*order.PartialOrder, []*tuple.Schema) { // lit/par
		return fuzzSchemas([]tuple.OrderEntry{tuple.Lit("L1"), tuple.Par("v")},
			[]tuple.OrderEntry{tuple.Lit("L1")},
			[]tuple.OrderEntry{tuple.Lit("L2"), tuple.Par("v"), tuple.Seq("t")})
	},
}

// fuzzSchemas declares one table per orderby list, F0, F1, ..., with
// distinct IDs and L1 < L2.
func fuzzSchemas(orderbys ...[]tuple.OrderEntry) (*order.PartialOrder, []*tuple.Schema) {
	po := order.NewPartialOrder()
	if err := po.Declare("L1", "L2"); err != nil {
		panic(err)
	}
	cols := []tuple.Column{{Name: "t", Kind: tuple.KindInt}, {Name: "v", Kind: tuple.KindInt}}
	schemas := make([]*tuple.Schema, len(orderbys))
	for i, ob := range orderbys {
		schemas[i] = tuple.MustSchema(fmt.Sprintf("F%d", i), cols, ob)
		schemas[i].SetID(int32(i))
	}
	return po, schemas
}

// deltaModel is the Delta set as a map of queued tuples, keyed by table
// ID, t and v: TakeMinBatch is a scan for the least causal class.
type deltaModel struct {
	po     *order.PartialOrder
	queued map[[3]int64]*tuple.Tuple
	dups   int64
}

func modelKey(x *tuple.Tuple) [3]int64 {
	return [3]int64{int64(x.Schema().ID()), x.Int("t"), x.Int("v")}
}

func (m *deltaModel) put(x *tuple.Tuple) bool {
	k := modelKey(x)
	if _, ok := m.queued[k]; ok {
		m.dups++
		return false
	}
	m.queued[k] = x
	return true
}

// path resolves x's Delta-tree path and the level of its first par entry
// (len(path) when there is none).
func (m *deltaModel) path(x *tuple.Tuple) (path []tuple.Value, par int) {
	s := x.Schema()
	par = len(s.OrderBy)
	for i, e := range s.OrderBy {
		if e.Kind == tuple.OrderLit {
			path = append(path, tuple.Int(int64(m.po.Rank(e.Lit))))
			continue
		}
		path = append(path, x.Field(s.OrderByColumn(i)))
		if e.Kind == tuple.OrderPar && par == len(s.OrderBy) {
			par = i
		}
	}
	return path, par
}

// class is x's causal class: its path, cut at its first par level, which
// stands for the whole subtree below.
func (m *deltaModel) class(x *tuple.Tuple) []tuple.Value {
	path, par := m.path(x)
	if par == len(path) {
		return path
	}
	return append(path[:par:par], tuple.Int(0))
}

// comparePaths orders paths as the tree does: level by level, a node's own
// tuples before its children's.
func comparePaths(a, b []tuple.Value) int {
	for i := range min(len(a), len(b)) {
		if c := tuple.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// takeMin removes the least class, in the order the tree drains it: by
// path, then by step order within a leaf.
func (m *deltaModel) takeMin() []*tuple.Tuple {
	var least []tuple.Value
	var batch []*tuple.Tuple
	for _, x := range m.queued {
		c := m.class(x)
		switch d := comparePaths(c, least); {
		case batch == nil || d < 0:
			least, batch = c, []*tuple.Tuple{x}
		case d == 0:
			batch = append(batch, x)
		}
	}
	for _, x := range batch {
		delete(m.queued, modelKey(x))
	}
	slices.SortFunc(batch, func(a, b *tuple.Tuple) int {
		pa, _ := m.path(a)
		pb, _ := m.path(b)
		if c := comparePaths(pa, pb); c != 0 {
			return c
		}
		return tuple.ComparePath(a, b)
	})
	return batch
}

// checkNodes walks the tree checking each level's slice: taken slots are
// cleared, live keys ascend strictly, and the capacity stays within twice
// the most live children the node has held: peak, whose entries for the
// nodes still in the tree are carried into seen.
func checkNodes(t *testing.T, n *node, peak, seen map[*node]int) {
	if n.head > len(n.children) {
		t.Fatalf("head %d past %d children", n.head, len(n.children))
	}
	for i, e := range n.children[:n.head] {
		if e.nd != nil {
			t.Fatalf("taken slot %d of %d still holds a child", i, n.head)
		}
	}
	live := n.children[n.head:]
	p := max(peak[n], len(live))
	seen[n] = p
	if cap(n.children) > 2*p {
		t.Fatalf("children capacity %d exceeds twice the peak live count %d", cap(n.children), p)
	}
	for i, e := range live {
		if e.nd == nil {
			t.Fatalf("live slot %d holds no child", n.head+i)
		}
		if i > 0 && tuple.Compare(live[i-1].key, e.key) >= 0 {
			t.Fatalf("live keys out of order: %v then %v", live[i-1].key, e.key)
		}
		checkNodes(t, e.nd, peak, seen)
	}
}

// FuzzDeltaTree decodes bytes into puts and takes on one tree and checks
// every drained batch against deltaModel. Byte 0 picks the shape from
// fuzzShapes; after it each op is one byte, low two bits first:
//
//	0     Put one tuple, its answer checked against the model's
//	1     PutSorted of 1 + op>>2 & 15 tuples sorted by tuple.ComparePath
//	2, 3  TakeMinBatch
//
// A tuple is two bytes x, y: table x % n of the shape's n, v = x / n % 4,
// and t = y's signed high nibble above the t of the last drained batch, so
// a stream of puts can follow the drain frontier as the engine's do (one
// below it lands under the level's live minimum). After each op the tree's
// levels are checked by checkNodes; at the end both sets are drained and
// the tree's Duplicates must equal the model's.
func FuzzDeltaTree(f *testing.F) {
	// A key below the last drained one: F0 t=5 and t=6, take t=5, put
	// t=4 under the live minimum into the slot t=5 left, take both.
	f.Add([]byte{0, 0, 0, 0x50, 0, 0, 0x60, 2, 0, 0, 0xf0, 2, 2, 2})
	// A par subtree drained after partial takes: F1 ends at L1's node, so
	// its leaf drains alone before F0's par subtree below it; more of both
	// are put and drained the same way; then F2's par subtree, with a seq
	// level below each par child.
	f.Add([]byte{2, 0, 6, 0, 0, 0, 0, 0, 1, 0, 0, 5, 0x30, 0, 5, 0x10, 0, 2, 0x20,
		2, 2, 0, 9, 0, 0, 1, 0, 0, 3, 0, 2, 2, 2, 2})
	// The same par subtree filled by one PutSorted.
	f.Add([]byte{2, 1 | 5<<2, 6, 0, 0, 0, 1, 0, 5, 0x30, 5, 0x10, 2, 0x20, 2, 2, 2, 2})
	// Duplicates over two seq levels: one within a PutSorted batch, one
	// hiding in an earlier run of F1's leaf until the drain merges it, and
	// one refused by Put.
	f.Add([]byte{1, 1 | 3<<2, 0, 0x10, 0, 0x10, 1, 0x10, 5, 0x10, 1, 3, 0x10, 1, 1, 0x10, 0, 0, 0x10, 2, 2, 2, 2})
	f.Add(frontierCycles(64))
	f.Fuzz(runDeltaOps)
}

// frontierCycles encodes n put/take cycles on a seq level that never
// empties: F1 t=1 and t=2, then per cycle a take and a put two above the
// drained t. The level holds two live keys at most, so checkNodes bounds
// its slice at four slots.
func frontierCycles(n int) []byte {
	ops := []byte{1, 0, 1, 0x10, 0, 1, 0x20}
	for range n {
		ops = append(ops, 2, 0, 1, 0x20)
	}
	return ops
}

// TestFrontierLevelStaysSmall runs FuzzDeltaTree's ops over 10⁵ frontier
// cycles: a served tenant's `seq t` level sees every key once and never
// empties, and its slice must not keep them all. It is a test rather than
// a corpus seed because mutating an input this long (a shifted byte makes
// two puts per take) makes the model's scans quadratic and stalls fuzzing.
func TestFrontierLevelStaysSmall(t *testing.T) {
	runDeltaOps(t, frontierCycles(100_000))
}

// runDeltaOps is FuzzDeltaTree's body.
func runDeltaOps(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	po, schemas := fuzzShapes[int(data[0])%len(fuzzShapes)]()
	tr := NewSequential(po)
	var called int64
	tr.OnDuplicate = func(*tuple.Tuple) { called++ }
	m := &deltaModel{po: po, queued: map[[3]int64]*tuple.Tuple{}}
	data = data[1:]
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var base int64
	mk := func() *tuple.Tuple {
		x, y := int(next()), int8(next())
		s := schemas[x%len(schemas)]
		return tuple.New(s, tuple.Int(base+int64(y>>4)), tuple.Int(int64(x/len(schemas)%4)))
	}
	take := func() int {
		got, want := tr.TakeMinBatch(), m.takeMin()
		if !slices.EqualFunc(got, want, (*tuple.Tuple).Equal) {
			t.Fatalf("TakeMinBatch = %v, model %v", got, want)
		}
		if len(got) > 0 {
			base = got[0].Int("t")
		}
		return len(got)
	}
	peak, seen := map[*node]int{}, map[*node]int{}
	for len(data) > 0 {
		switch op := next(); op & 3 {
		case 0:
			x := mk()
			if got, want := tr.Put(x), m.put(x); got != want {
				t.Fatalf("Put(%v) = %v, model %v", x, got, want)
			}
		case 1:
			run := make([]*tuple.Tuple, 1+op>>2&15)
			for i := range run {
				run[i] = mk()
			}
			slices.SortFunc(run, tuple.ComparePath)
			fresh := 0
			for _, x := range run {
				if m.put(x) {
					fresh++
				}
			}
			// A copy hiding in an earlier run of its leaf is counted
			// here and dropped at drain, so the count is bounded only.
			if added := tr.PutSorted(run, nil); added < fresh || added > len(run) {
				t.Fatalf("PutSorted(%v) queued %d, model says %d of them are new", run, added, fresh)
			}
		default:
			take()
		}
		if tr.Len() < len(m.queued) || tr.Empty() != (len(m.queued) == 0) {
			t.Fatalf("Len %d, Empty %v with %d queued", tr.Len(), tr.Empty(), len(m.queued))
		}
		checkNodes(t, tr.root, peak, seen)
		peak, seen = seen, peak
		clear(seen)
	}
	for !tr.Empty() || len(m.queued) > 0 {
		if take() == 0 {
			t.Fatalf("Len %d with nothing left to take", tr.Len())
		}
	}
	if tr.Duplicates() != m.dups || called != m.dups {
		t.Fatalf("Duplicates %d, OnDuplicate called %d times, model %d", tr.Duplicates(), called, m.dups)
	}
}
