package gamma

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// Value pools for the tree-store model tests: the int extremes and the
// edges of the precomputed key's exact 32-bit range, ±Inf, ±0 and NaN
// (canonicalised by tuple.Float), and strings that share their first four
// bytes — the key's string prefix — so key ties fall back to the fields.
var (
	modelInts = []int64{math.MinInt64, math.MinInt64 + 1, (-1 << 31) - 1, -1 << 31, -7, -1, 0, 1, 7,
		1<<31 - 1, 1 << 31, math.MaxInt64 - 1, math.MaxInt64}
	modelFloats = []float64{math.Inf(-1), -math.MaxFloat64, -2.5, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1, 2.5, math.MaxFloat64, math.Inf(1), math.NaN()}
	modelStrings = []string{"", "a", "ab", "abc", "abcd", "abcd\x00", "abcda", "abcdb", "abce", "abd", "b",
		"\xff\xff\xff\xff", "\xff\xff\xff\xff\x00"}
)

// modelSchemas returns one table per kind of leading column — the column
// the precomputed key encodes — each followed by an int and a string.
func modelSchemas() []*tuple.Schema {
	var out []*tuple.Schema
	for _, k := range []tuple.Kind{tuple.KindInt, tuple.KindFloat, tuple.KindString} {
		out = append(out, tuple.MustSchema("M"+k.String(), []tuple.Column{
			{Name: "a", Kind: k}, {Name: "b", Kind: tuple.KindInt}, {Name: "c", Kind: tuple.KindString},
		}, nil))
	}
	return out
}

// poolValue maps one byte to a value of kind k from the pools; ints above
// the pool's range are small consecutive numbers, so prefixes repeat.
func poolValue(k tuple.Kind, b byte) tuple.Value {
	switch k {
	case tuple.KindInt:
		if int(b) < len(modelInts) {
			return tuple.Int(modelInts[b])
		}
		return tuple.Int(int64(b) - 128)
	case tuple.KindFloat:
		return tuple.Float(modelFloats[int(b)%len(modelFloats)])
	}
	return tuple.String_(modelStrings[int(b)%len(modelStrings)])
}

func poolTuple(s *tuple.Schema, a, b, c byte) *tuple.Tuple {
	return tuple.New(s, poolValue(s.Columns[0].Kind, a), poolValue(tuple.KindInt, b), poolValue(tuple.KindString, c))
}

// treeModel is the reference the tree store is checked against: a slice in
// CompareFields order that keeps the first of equal tuples.
type treeModel []*tuple.Tuple

func (m *treeModel) insert(t *tuple.Tuple) bool {
	i, found := slices.BinarySearchFunc(*m, t, (*tuple.Tuple).CompareFields)
	if !found {
		*m = slices.Insert(*m, i, t)
	}
	return !found
}

// selectN returns the model's first limit matches of q.
func (m treeModel) selectN(q Query, limit int) []*tuple.Tuple {
	var out []*tuple.Tuple
	for _, t := range m {
		if len(out) < limit && q.Matches(t) {
			out = append(out, t)
		}
	}
	return out
}

func storeSelectN(st Store, q Query, limit int) []*tuple.Tuple {
	var out []*tuple.Tuple
	st.Select(q, func(t *tuple.Tuple) bool {
		out = append(out, t)
		return len(out) < limit
	})
	return out
}

// checkShape verifies the B-tree invariants: node sizes within max, one
// more child than tuples in inner nodes, every leaf at one depth, and the
// tuples in strictly ascending CompareSchemaFields order.
func checkShape(t *testing.T, st *treeStore) {
	t.Helper()
	leafDepth := -1
	var prev *tuple.Tuple
	var walk func(n *treeNode, depth int)
	walk = func(n *treeNode, depth int) {
		if len(n.items) > st.max || n.children != nil && len(n.children) != len(n.items)+1 {
			t.Fatalf("node at depth %d holds %d tuples and %d children (max %d)", depth, len(n.items), len(n.children), st.max)
		}
		if n.children == nil {
			if leafDepth >= 0 && depth != leafDepth {
				t.Fatalf("leaves at depths %d and %d", leafDepth, depth)
			}
			leafDepth = depth
		}
		for i, x := range n.items {
			if n.children != nil {
				walk(n.children[i], depth+1)
			}
			if prev != nil && tuple.CompareSchemaFields(prev, x) >= 0 {
				t.Fatalf("%v stored after %v", x, prev)
			}
			prev = x
		}
		if n.children != nil {
			walk(n.children[len(n.items)], depth+1)
		}
	}
	walk(st.root, 0)
}

func treeHeight(st *treeStore) int {
	h := 1
	for n := st.root; n.children != nil; n = n.children[0] {
		h++
	}
	return h
}

// checkAgainstModel compares Len, the Scan order and Select at every prefix
// length — probed with a stored tuple, a random one and a leading value of
// the wrong kind, with and without a Where, to the end and stopping early.
func checkAgainstModel(t *testing.T, st *treeStore, m treeModel, s *tuple.Schema, r *rand.Rand) {
	t.Helper()
	checkShape(t, st)
	if st.Len() != len(m) {
		t.Fatalf("Len = %d, model holds %d", st.Len(), len(m))
	}
	if got := scanAll(st); !slices.Equal(got, m) {
		t.Fatalf("Scan visited %d tuples, model holds %d, or in another order", len(got), len(m))
	}
	wrongKind := tuple.Bool(true)
	for probe := 0; probe < 12 && len(m) > 0; probe++ {
		p := m[r.Intn(len(m))]
		switch probe % 3 {
		case 1:
			p = poolTuple(s, byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)))
		case 2:
			p = nil
		}
		for plen := 0; plen <= s.Arity(); plen++ {
			q := Query{}
			for i := 0; i < plen; i++ {
				if p == nil {
					q.Prefix = append(q.Prefix, wrongKind)
				} else {
					q.Prefix = append(q.Prefix, p.Field(i))
				}
			}
			for _, where := range []func(*tuple.Tuple) bool{nil, func(x *tuple.Tuple) bool { return x.Field(1).AsInt()%2 == 0 }} {
				q.Where = where
				for _, limit := range []int{math.MaxInt, 1 + r.Intn(3)} {
					if got, want := storeSelectN(st, q, limit), m.selectN(q, limit); !slices.Equal(got, want) {
						t.Fatalf("Select(%v, where=%v, limit %d) = %v, want %v", q.Prefix, where != nil, limit, got, want)
					}
				}
			}
		}
	}
}

// TestTreeStoreAgainstModel drives the B-tree with ascending, descending,
// random and all-duplicate runs, through InsertBatch and per-tuple Insert,
// against a sorted-slice model, for a small node size (many levels and
// splits) and the default. Each table leads with a different kind, so
// the key-first order the tree keeps is checked against CompareFields at
// the value edges where the key clamps or ties.
func TestTreeStoreAgainstModel(t *testing.T) {
	for _, s := range modelSchemas() {
		for _, max := range []int{4, treeNodeMax} {
			t.Run(fmt.Sprintf("%s/max%d", s.Name, max), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(max) + int64(len(s.Name))))
				st := newTreeStore(max)
				var m treeModel
				for round := 0; round < 96; round++ {
					mode := round % 4
					run := make([]*tuple.Tuple, 1+r.Intn(200))
					for i := range run {
						if mode == 3 && len(m) > 0 { // fresh copies of stored tuples
							x := m[r.Intn(len(m))]
							run[i] = tuple.New(s, x.Field(0), x.Field(1), x.Field(2))
							continue
						}
						run[i] = poolTuple(s, byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)))
					}
					switch mode {
					case 0:
						slices.SortFunc(run, (*tuple.Tuple).CompareFields)
					case 1:
						slices.SortFunc(run, func(a, b *tuple.Tuple) int { return b.CompareFields(a) })
					}
					var want, got []*tuple.Tuple
					for _, x := range run {
						if m.insert(x) {
							want = append(want, x)
						}
					}
					if round/4%2 == 0 {
						got = InsertBatch(st, run, nil)
					} else {
						for _, x := range run {
							if st.Insert(x) {
								got = append(got, x)
							}
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("round %d (mode %d): inserted %d tuples, model %d, or others", round, mode, len(got), len(want))
					}
					if round%16 == 15 {
						checkAgainstModel(t, st, m, s, r)
					}
				}
				if h := treeHeight(st); h < 3 {
					t.Errorf("%d tuples built a tree of height %d; the test wants at least 3 levels", len(m), h)
				}
			})
		}
	}
}

// TestTreeStoreConcurrentInsertSelectScan runs batch and per-tuple writers,
// prefix readers and scanners on one tree — the -race check of its lock.
// Readers must see ascending, prefix-pure ranges and a Len that never
// shrinks; every tuple is there afterwards.
func TestTreeStoreConcurrentInsertSelectScan(t *testing.T) {
	s := batchTestSchema()
	for _, max := range []int{4, treeNodeMax} {
		t.Run(fmt.Sprintf("max%d", max), func(t *testing.T) {
			st := newTreeStore(max)
			const writers, perWriter, keys = 4, 3200, 64
			var wg, readers sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ts := make([]*tuple.Tuple, perWriter)
					for i := range ts {
						ts[i] = tuple.New(s, tuple.Int(int64(i%keys)), tuple.Int(int64(w)), tuple.Int(int64(i)))
					}
					if w%2 == 1 {
						for _, x := range ts {
							st.Insert(x)
						}
						return
					}
					slices.SortFunc(ts, (*tuple.Tuple).CompareFields)
					for i := 0; i < len(ts); i += 100 {
						InsertBatch(st, ts[i:i+100], nil)
					}
				}()
			}
			for rd := 0; rd < 2; rd++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					lastLen := 0
					for key := int64(0); ; key = (key + 1) % keys {
						select {
						case <-stop:
							return
						default:
						}
						var prev *tuple.Tuple
						st.Select(Query{Prefix: []tuple.Value{tuple.Int(key)}}, func(x *tuple.Tuple) bool {
							if x.Field(0).AsInt() != key || prev != nil && prev.CompareFields(x) >= 0 {
								t.Errorf("Select(%d) visited %v after %v", key, x, prev)
							}
							prev = x
							return true
						})
						seen := 0
						st.Scan(func(x *tuple.Tuple) bool { seen++; return true })
						if n := st.Len(); n < lastLen || seen > writers*perWriter {
							t.Errorf("Len went %d -> %d; Scan visited %d", lastLen, n, seen)
						} else {
							lastLen = n
						}
					}
				}()
			}
			wg.Wait()
			close(stop)
			readers.Wait()
			checkShape(t, st)
			if st.Len() != writers*perWriter {
				t.Fatalf("Len = %d, want %d", st.Len(), writers*perWriter)
			}
			for key := int64(0); key < keys; key++ {
				if n := len(storeSelectN(st, Query{Prefix: []tuple.Value{tuple.Int(key)}}, math.MaxInt)); n != writers*perWriter/keys {
					t.Errorf("key %d holds %d tuples, want %d", key, n, writers*perWriter/keys)
				}
			}
		})
	}
}

// FuzzTreeStore decodes bytes into inserts, selects and scans on one tree
// and checks each against the sorted-slice model. Byte 0 picks the table
// (the kind of its leading column) and the node size; after it each op is
// one byte, low two bits first:
//
//	0, 1  insert 1 + op>>2 & 15 tuples of three bytes each, per tuple
//	      (0) or as one InsertBatch of the run sorted ascending (1)
//	2     Select with prefix length op>>2 & 3 (one byte per value), a Where
//	      keeping even b when op>>4 & 1, stopping after 1 + op>>5 matches
//	      or never when that is 8
//	3     Scan stopping after op>>2 tuples, then Len
func FuzzTreeStore(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		s := modelSchemas()[int(data[0])%3]
		st := newTreeStore([]int{2, 3, 4, treeNodeMax}[data[0]>>2&3])
		var m treeModel
		data = data[1:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		for len(data) > 0 {
			op := next()
			switch op & 3 {
			case 0, 1:
				run := make([]*tuple.Tuple, 1+op>>2&15)
				for i := range run {
					run[i] = poolTuple(s, next(), next(), next())
				}
				var want, got []*tuple.Tuple
				if op&3 == 1 {
					slices.SortFunc(run, (*tuple.Tuple).CompareFields)
				}
				for _, x := range run {
					if m.insert(x) {
						want = append(want, x)
					}
				}
				if op&3 == 1 {
					got = st.InsertBatch(run, nil)
				} else {
					for _, x := range run {
						if st.Insert(x) {
							got = append(got, x)
						}
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("inserted %v, model %v", got, want)
				}
			case 2:
				q := Query{}
				for i := 0; i < int(op>>2&3); i++ {
					q.Prefix = append(q.Prefix, poolValue(s.Columns[i].Kind, next()))
				}
				if op>>4&1 == 1 {
					q.Where = func(x *tuple.Tuple) bool { return x.Field(1).AsInt()%2 == 0 }
				}
				limit := 1 + int(op>>5)
				if limit == 8 {
					limit = math.MaxInt
				}
				if got, want := storeSelectN(st, q, limit), m.selectN(q, limit); !slices.Equal(got, want) {
					t.Fatalf("Select(%v, where=%v, limit %d) = %v, want %v", q.Prefix, q.Where != nil, limit, got, want)
				}
			case 3:
				var got []*tuple.Tuple
				limit := int(op >> 2)
				st.Scan(func(x *tuple.Tuple) bool { got = append(got, x); return len(got) < limit })
				if want := m[:min(limit, len(m))]; limit > 0 && !slices.Equal(got, want) {
					t.Fatalf("Scan stopping at %d = %v, want %v", limit, got, want)
				}
				if st.Len() != len(m) {
					t.Fatalf("Len = %d, model holds %d", st.Len(), len(m))
				}
			}
		}
		checkShape(t, st)
		if got := scanAll(st); !slices.Equal(got, m) {
			t.Fatalf("Scan = %v, model %v", got, m)
		}
	})
}

// BenchmarkTreeNodeMax measures what treeNodeMax is set from, at node sizes
// 32, 64 and 128: a fresh store taking 64 k 4-int tuples as 256-tuple
// sorted runs — each run past the stored maximum (ascending), or spread
// over the whole key range (random) — and one-column prefix Selects of 64
// matches each on the filled store. The figures to read are ns/tuple and,
// for select, ns/op.
func BenchmarkTreeNodeMax(b *testing.B) {
	s := pvSchema()
	const n, run = 1 << 16, 256
	asc := make([]*tuple.Tuple, n)
	for i := range asc {
		asc[i] = pv(s, int64(i/64), int64(i/8%8), int64(i%8), int64(i))
	}
	random := slices.Clone(asc)
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { random[i], random[j] = random[j], random[i] })
	for i := 0; i < n; i += run {
		slices.SortFunc(random[i:i+run], (*tuple.Tuple).CompareFields)
	}
	prefixes := make([][]tuple.Value, n/64)
	for i := range prefixes {
		prefixes[i] = []tuple.Value{tuple.Int(int64(i))}
	}
	for _, max := range []int{32, 64, 128} {
		for name, ts := range map[string][]*tuple.Tuple{"ascending": asc, "random": random} {
			b.Run(fmt.Sprintf("max=%d/%s", max, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					st := newTreeStore(max)
					for j := 0; j < n; j += run {
						st.InsertBatch(ts[j:j+run], nil)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/tuple")
			})
		}
		b.Run(fmt.Sprintf("max=%d/select", max), func(b *testing.B) {
			st := newTreeStore(max)
			st.InsertBatch(asc, nil)
			matched := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Select(Query{Prefix: prefixes[i%len(prefixes)]}, func(*tuple.Tuple) bool { matched++; return true })
			}
			if matched != b.N*64 {
				b.Fatalf("%d queries matched %d tuples, want 64 each", b.N, matched)
			}
		})
	}
}
