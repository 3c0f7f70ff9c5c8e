package gamma

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// batchTestSchema is a 3-int-column table for the batched-insert property
// tests; the first column serves as query-prefix material.
func batchTestSchema() *tuple.Schema {
	return tuple.MustSchema("T",
		[]tuple.Column{
			{Name: "a", Kind: tuple.KindInt},
			{Name: "b", Kind: tuple.KindInt},
			{Name: "c", Kind: tuple.KindInt},
		},
		[]tuple.OrderEntry{tuple.Lit("T")})
}

// batchFactories names the ordered store, the backend with a sorted-run
// InsertBatch path.
func batchFactories() map[string]StoreFactory {
	return map[string]StoreFactory{"tree": NewTreeStore}
}

// TestInsertBatchSortedRunMatchesInsert: on the ordered store, feeding
// InsertBatch ascending runs — the shape the step boundary delivers, here
// with duplicates inside a run and against the stored set, small runs into
// a large store and a large run into an empty one, plus the odd unsorted
// batch — must report the same live tuples, in the same order, as per-tuple
// Insert, and leave a store whose Scan is identical.
func TestInsertBatchSortedRunMatchesInsert(t *testing.T) {
	byFields := func(a, b *tuple.Tuple) int { return a.CompareFields(b) }
	for _, name := range []string{"tree"} {
		factory := batchFactories()[name]
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				r := rand.New(rand.NewSource(seed))
				s := batchTestSchema()
				batched, ref := factory(s), factory(s)
				// seed%4 == 0: first run large, into an empty store; the
				// rest: a large store taking small runs.
				sizes := []int{2000, 1, 7, 40}
				if seed%4 != 0 {
					sizes = []int{600, 3, 1, 25, 2, 60, 5}
				}
				for round, size := range sizes {
					run := make([]*tuple.Tuple, size)
					for i := range run {
						run[i] = tuple.New(s,
							tuple.Int(int64(r.Intn(12))), tuple.Int(int64(r.Intn(12))), tuple.Int(int64(r.Intn(12))))
					}
					if r.Intn(5) != 0 {
						slices.SortFunc(run, byFields)
					}
					var want []*tuple.Tuple
					for _, tp := range run {
						if ref.Insert(tp) {
							want = append(want, tp)
						}
					}
					got := InsertBatch(batched, run, nil)
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d round %d: InsertBatch kept %d tuples, per-tuple Insert %d (or in another order)",
							seed, round, len(got), len(want))
					}
				}
				got, want := scanAll(batched), scanAll(ref)
				if !slices.Equal(got, want) || batched.Len() != ref.Len() {
					t.Fatalf("seed %d: stores diverge: %d tuples (Len %d) vs %d (Len %d)",
						seed, len(got), batched.Len(), len(want), ref.Len())
				}
				if !slices.IsSortedFunc(got, byFields) {
					t.Fatalf("seed %d: store no longer scans in field order", seed)
				}
			}
		})
	}
	// At node max 4, the shapes the leaf-by-leaf path must get right: runs
	// straddling many leaf fences, runs past the maximum that split the
	// right edge again and again, and runs holding the stored tuples that
	// are fences — the separators in inner nodes — with their neighbours.
	s := batchTestSchema()
	key := func(a int64) *tuple.Tuple { return tuple.New(s, tuple.Int(a), tuple.Int(0), tuple.Int(0)) }
	span := func(lo, hi, step int64) []*tuple.Tuple {
		var out []*tuple.Tuple
		for a := lo; a < hi; a += step {
			out = append(out, key(a))
		}
		return out
	}
	atFences := func(st *treeStore) []*tuple.Tuple {
		var out []*tuple.Tuple
		var walk func(n *treeNode)
		walk = func(n *treeNode) {
			for i, x := range n.items {
				if n.children != nil {
					walk(n.children[i])
					a := x.Field(0).AsInt()
					out = append(out, key(a-1), key(a), key(a+1))
				}
			}
			if n.children != nil {
				walk(n.children[len(n.items)])
			}
		}
		walk(st.root)
		return slices.CompactFunc(out, func(x, y *tuple.Tuple) bool { return x.Equal(y) })
	}
	for _, tc := range []struct {
		name   string
		stored []*tuple.Tuple
		runs   []func(*treeStore) []*tuple.Tuple
	}{
		{"straddles fences", span(0, 200, 2), []func(*treeStore) []*tuple.Tuple{
			func(*treeStore) []*tuple.Tuple { return span(51, 151, 2) },
			func(*treeStore) []*tuple.Tuple { return span(1, 260, 7) },
			func(*treeStore) []*tuple.Tuple { return span(-30, 300, 1) },
		}},
		{"past the maximum", span(0, 10, 1), []func(*treeStore) []*tuple.Tuple{
			func(*treeStore) []*tuple.Tuple { return span(9, 200, 1) },
			func(*treeStore) []*tuple.Tuple { return span(200, 500, 3) },
			func(*treeStore) []*tuple.Tuple { return append(span(490, 510, 1), span(510, 1000, 1)...) },
		}},
		{"equal at fences", span(0, 400, 2), []func(*treeStore) []*tuple.Tuple{atFences, atFences, atFences}},
	} {
		t.Run("max4/"+tc.name, func(t *testing.T) {
			batched, ref := newTreeStore(4), newTreeStore(4)
			for _, x := range tc.stored {
				batched.Insert(x)
				ref.Insert(x)
			}
			for round, runOf := range tc.runs {
				run := runOf(batched)
				var want []*tuple.Tuple
				for _, x := range run {
					if ref.Insert(x) {
						want = append(want, x)
					}
				}
				if got := batched.InsertBatch(run, nil); !slices.Equal(got, want) {
					t.Fatalf("round %d: InsertBatch kept %v, per-tuple Insert %v", round, got, want)
				}
				checkShape(t, batched)
			}
			if got, want := scanAll(batched), scanAll(ref); !slices.Equal(got, want) || batched.Len() != ref.Len() {
				t.Fatalf("stores diverge: %d tuples (Len %d) vs %d (Len %d)", len(got), batched.Len(), len(want), ref.Len())
			}
		})
	}
}

// scanAll returns the store's tuples in Scan order.
func scanAll(st Store) []*tuple.Tuple {
	var out []*tuple.Tuple
	st.Scan(func(t *tuple.Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// TestInsertBatchUnderConcurrentSelect: sorted-run inserts must stay safe
// beside readers (a served session's queries do not wait for the step
// boundary) and beside a per-tuple inserter (the -noDelta path). Run under
// -race; the reader additionally checks that every prefix Select it makes
// sees an ascending, prefix-pure range.
func TestInsertBatchUnderConcurrentSelect(t *testing.T) {
	for _, name := range []string{"tree"} {
		factory := batchFactories()[name]
		t.Run(name, func(t *testing.T) {
			s := batchTestSchema()
			st := factory(s)
			r := rand.New(rand.NewSource(7))
			var runs [][]*tuple.Tuple
			uniq := map[[3]int64]bool{}
			for i := 0; i < 30; i++ {
				run := make([]*tuple.Tuple, 1+r.Intn(300))
				for j := range run {
					k := [3]int64{int64(r.Intn(8)), int64(r.Intn(40)), int64(r.Intn(40))}
					uniq[k] = true
					run[j] = tuple.New(s, tuple.Int(k[0]), tuple.Int(k[1]), tuple.Int(k[2]))
				}
				slices.SortFunc(run, func(a, b *tuple.Tuple) int { return a.CompareFields(b) })
				runs = append(runs, run)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // reader
				defer wg.Done()
				for a := int64(0); ; a = (a + 1) % 8 {
					select {
					case <-stop:
						return
					default:
					}
					var prev *tuple.Tuple
					st.Select(Query{Prefix: []tuple.Value{tuple.Int(a)}}, func(tp *tuple.Tuple) bool {
						if tp.Int("a") != a || (prev != nil && prev.CompareFields(tp) >= 0) {
							t.Errorf("Select a=%d saw %v after %v", a, tp, prev)
							return false
						}
						prev = tp
						return true
					})
				}
			}()
			go func() { // per-tuple inserter over the odd runs
				defer wg.Done()
				for i := 1; i < len(runs); i += 2 {
					for _, tp := range runs[i] {
						st.Insert(tp)
					}
				}
			}()
			for i := 0; i < len(runs); i += 2 {
				InsertBatch(st, runs[i], nil)
			}
			close(stop)
			wg.Wait()
			if got := scanAll(st); st.Len() != len(uniq) || len(got) != len(uniq) ||
				!slices.IsSortedFunc(got, func(a, b *tuple.Tuple) int { return a.CompareFields(b) }) {
				t.Fatalf("store scans %d tuples (Len %d), want %d in field order", len(got), st.Len(), len(uniq))
			}
		})
	}
}
