package gamma

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/jstar-lang/jstar/internal/testrace"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// TestColumnarInsertAllocationBudget pins the columnar store's insert
// path to amortised growth: a fresh store taking 4 096 distinct rows
// through InsertBatch allocates only when a column slice, the chain slice
// or an index table grows — well under one object per 10 rows (a Go map
// of per-hash row slices, the dedup index this replaced, cost one per
// row). A count, not a timing.
func TestColumnarInsertAllocationBudget(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := tuple.MustSchema("P",
		[]tuple.Column{{Name: "a", Kind: tuple.KindInt}, {Name: "b", Kind: tuple.KindInt}}, nil)
	const n = 4096
	ts := make([]*tuple.Tuple, n)
	for i := range ts {
		ts[i] = tuple.New(s, tuple.Int(int64(i/4)), tuple.Int(int64(i)))
	}
	live := make([]*tuple.Tuple, 0, n)
	allocs := testing.AllocsPerRun(5, func() {
		live = NewColumnarStore(1)(s).(BatchStore).InsertBatch(ts, live[:0])
	})
	if len(live) != n {
		t.Fatalf("InsertBatch kept %d of %d distinct rows", len(live), n)
	}
	if perRow := allocs / n; perRow >= 0.1 {
		t.Errorf("columnar InsertBatch: %.0f allocations for %d rows (%.3f per row), want < 0.1 per row", allocs, n, perRow)
	}
}

// BenchmarkKeyedRowStore: an all-int 4-column table of 100 000 rows on 48
// (c0, c1) keys, about 2 083 rows each, through the stores that key on two
// columns. The rows arrive either interleaved (the 48 keys round-robin, the
// worst locality for a store that keeps rows in arrival order) or grouped
// by key, as the engine's sorted batch inserts leave them. insert times one
// fresh store taking every row (ns/tuple); select-k walks one key's rows
// (an exact-key prefix), select-k+1 finds one row by a three-column prefix
// (both per query). The unique input is the served tables' shape instead:
// 100 000 rows of arity 1 or 2, one per key, the keys permuted and arriving
// as sorted InsertBatch runs of 1 000, into the stores keyed on one column.
func BenchmarkKeyedRowStore(b *testing.B) {
	s := tuple.MustSchema("R", []tuple.Column{
		{Name: "c0", Kind: tuple.KindInt}, {Name: "c1", Kind: tuple.KindInt},
		{Name: "c2", Kind: tuple.KindInt}, {Name: "c3", Kind: tuple.KindInt}}, nil)
	const n, keys = 100_000, 48
	interleaved := make([]*tuple.Tuple, n)
	for i := range interleaved {
		interleaved[i] = tuple.New(s, tuple.Int(int64(i%6)), tuple.Int(int64(i/6%8)), tuple.Int(int64(i)), tuple.Int(int64(7*i)))
	}
	grouped := slices.SortedFunc(slices.Values(interleaved), (*tuple.Tuple).CompareFields)
	benchUniqueKeys(b, n)
	for _, spec := range []string{"columnar:2", "hash:2"} {
		f, err := FactoryFor(spec, s)
		if err != nil {
			b.Fatal(err)
		}
		for _, order := range []struct {
			name string
			rows []*tuple.Tuple
		}{{"interleaved", interleaved}, {"grouped", grouped}} {
			rows := order.rows
			b.Run(spec+"/"+order.name+"/insert", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					st := f(s)
					for _, t := range rows {
						st.Insert(t)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/tuple")
			})
			var st Store // filled on first use, so -bench can pick one sub-benchmark
			for _, width := range []int{2, 3} {
				name := map[int]string{2: "select-k", 3: "select-k+1"}[width]
				b.Run(spec+"/"+order.name+"/"+name, func(b *testing.B) {
					if st == nil {
						st = f(s)
						for _, t := range rows {
							st.Insert(t)
						}
						b.ResetTimer()
					}
					matched := 0
					for i := 0; i < b.N; i++ {
						r := interleaved[i*7919%n]
						q := Query{Prefix: []tuple.Value{r.Field(0), r.Field(1), r.Field(2)}[:width]}
						st.Select(q, func(*tuple.Tuple) bool { matched++; return true })
					}
					if want := map[int]int{2: n / keys, 3: 1}[width]; matched < b.N*want {
						b.Fatalf("%d queries matched %d rows, want at least %d each", b.N, matched, want)
					}
				})
			}
		}
	}
}

// benchUniqueKeys is BenchmarkKeyedRowStore's unique input: n rows (k) and
// (k, 2k), one per permuted key, as sorted runs of 1 000.
func benchUniqueKeys(b *testing.B, n int) {
	const run = 1000
	for _, arity := range []int{1, 2} {
		s := tuple.MustSchema("U", []tuple.Column{
			{Name: "c0", Kind: tuple.KindInt}, {Name: "c1", Kind: tuple.KindInt}}[:arity], nil)
		rows := make([]*tuple.Tuple, n)
		for i, k := range rand.New(rand.NewSource(1)).Perm(n) {
			rows[i] = tuple.New(s, []tuple.Value{tuple.Int(int64(k)), tuple.Int(int64(2 * k))}[:arity]...)
		}
		for at := 0; at < n; at += run {
			slices.SortFunc(rows[at:min(at+run, n)], (*tuple.Tuple).CompareFields)
		}
		for _, spec := range []string{"columnar", "hash:1"} {
			f, err := FactoryFor(spec, s)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/unique-arity%d/insert", spec, arity), func(b *testing.B) {
				live := make([]*tuple.Tuple, 0, run)
				for i := 0; i < b.N; i++ {
					st := f(s)
					for at := 0; at < n; at += run {
						if live = InsertBatch(st, rows[at:min(at+run, n)], live[:0]); len(live) != min(run, n-at) {
							b.Fatalf("run at %d kept %d rows", at, len(live))
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/tuple")
			})
		}
	}
}

// TestInsertRowMatchesInsert: on each RowInserter store, InsertRow of a
// row's values answers, stores and scans as Insert of its tuple does —
// duplicates and rows that share a key included — and a key bound to a
// second value panics with the same message.
func TestInsertRowMatchesInsert(t *testing.T) {
	s := matSchema()
	var rows [][]tuple.Value
	for i := range int64(40) {
		rows = append(rows, []tuple.Value{tuple.Int(i % 3), tuple.Int(i * 7 % 4), tuple.Int(i % 5), tuple.Int(i % 3 * 10)})
	}
	rows = append(rows, rows[3], rows[17])
	for _, f := range []StoreFactory{NewDense3D(3, 4, 5), NewColumnarStore(1), NewColumnarStore(3)} {
		byTuple, byRow := f(s), f(s)
		name := KindOf(byTuple)
		for i, row := range rows {
			want := byTuple.Insert(tuple.New(s, row...))
			if got := byRow.(RowInserter).InsertRow(row); got != want {
				t.Fatalf("%s: row %d %v: InsertRow = %v, Insert = %v", name, i, row, got, want)
			}
		}
		if got, want := scanned(byRow), scanned(byTuple); !slices.Equal(got, want) {
			t.Errorf("%s: InsertRow stored\n%v\nInsert stored\n%v", name, got, want)
		}
		if name == "columnar" || name == "columnar:3" {
			continue // the columnar store does not enforce primary keys
		}
		bound := []tuple.Value{tuple.Int(0), tuple.Int(0), tuple.Int(0), tuple.Int(99)}
		want := panicOf(func() { byTuple.Insert(tuple.New(s, bound...)) })
		if got := panicOf(func() { byRow.(RowInserter).InsertRow(bound) }); want == "" || got != want {
			t.Errorf("%s: InsertRow panicked %q, Insert %q", name, got, want)
		}
	}
}

func scanned(st Store) []string {
	var out []string
	st.Scan(func(x *tuple.Tuple) bool {
		out = append(out, x.String())
		return true
	})
	return out
}

func panicOf(fn func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	fn()
	return ""
}
