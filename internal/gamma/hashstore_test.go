package gamma

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// hashModel is the reference the hash-bucket stores are checked against:
// every inserted tuple, in insertion order, with map-based dedup.
type hashModel struct {
	seen map[string]bool
	ts   []*tuple.Tuple
	strs []string // ts rendered, for comparing result lists
}

func (m *hashModel) insert(t *tuple.Tuple) bool {
	str := t.String()
	if m.seen[str] {
		return false
	}
	m.seen[str] = true
	m.ts = append(m.ts, t)
	m.strs = append(m.strs, str)
	return true
}

func (m *hashModel) matches(q Query) []string {
	var out []string
	for i, t := range m.ts {
		if q.Matches(t) {
			out = append(out, m.strs[i])
		}
	}
	return out
}

func selected(st Store, q Query) []string {
	var out []string
	st.Select(q, func(t *tuple.Tuple) bool { out = append(out, t.String()); return true })
	return out
}

// TestHashStoresAgainstModel drives the open-addressing hash shard, through
// both stores built on it, and the columnar store's chain index with random
// insert / duplicate / select sequences against a map model. The hash masks
// force distinct keys onto one 64-bit hash (0xF: sixteen chains in one
// shard; 0xFF: one shard's table rehashing several times with every chain
// shared; on columnar 0xF folds the dedup table onto sixteen hashes too);
// the unmasked run spreads some 4 000 keys over the 64 shards, about three
// rehashes each. Indexed selects must return the model's matches in
// insertion order; under-specified prefixes (the scan fallback) the same
// set.
func TestHashStoresAgainstModel(t *testing.T) {
	s := batchTestSchema()
	cases := []struct {
		name    string
		factory StoreFactory
		k       int // prefix length from which Select is indexed
		mask    uint64
		keys    int64 // range of column a
	}{
		{"hash1", NewHashStore(1), 1, ^uint64(0), 6000},
		{"hash2", NewHashStore(2), 2, ^uint64(0), 80},
		{"hash1-collide16", NewHashStore(1), 1, 0xF, 300},
		{"hash2-collide256", NewHashStore(2), 2, 0xFF, 60},
		{"arrayhash", NewArrayOfHashSets(0, 0, 49), 1, 0, 50},
		{"columnar", NewColumnarStore, 1, ^uint64(0), 6000},
		{"columnar-collide16", NewColumnarStore, 1, 0xF, 300},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := c.factory(s)
			setHashMask(st, c.mask)
			r := rand.New(rand.NewSource(7))
			m := &hashModel{seen: map[string]bool{}}
			tup := func() *tuple.Tuple {
				return tuple.New(s, tuple.Int(r.Int63n(c.keys)), tuple.Int(r.Int63n(6)), tuple.Int(r.Int63n(4)))
			}
			check := func(q Query, ordered bool) {
				t.Helper()
				got, want := selected(st, q), m.matches(q)
				if !ordered {
					slices.Sort(got)
					slices.Sort(want)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("Select(%v, where=%v) = %v, want %v", q.Prefix, q.Where != nil, got, want)
				}
			}
			for step := 0; step < 8000; step++ {
				x := tup()
				if r.Intn(5) == 0 && len(m.ts) > 0 {
					x = m.ts[r.Intn(len(m.ts))] // a certain duplicate
					x = tuple.New(s, x.Field(0), x.Field(1), x.Field(2))
				}
				if got, want := st.Insert(x), m.insert(x); got != want {
					t.Fatalf("step %d: Insert(%v) = %v, model says %v", step, x, got, want)
				}
				if step%100 != 0 {
					continue
				}
				probe := tup()
				for plen := 0; plen <= 3; plen++ {
					q := Query{}
					for i := 0; i < plen; i++ {
						q.Prefix = append(q.Prefix, probe.Field(i))
					}
					check(q, plen >= c.k)
					lim := r.Int63n(4)
					q.Where = func(t *tuple.Tuple) bool { return t.Field(2).AsInt() >= lim }
					check(q, plen >= c.k)
				}
			}
			if st.Len() != len(m.ts) {
				t.Errorf("Len = %d, model holds %d", st.Len(), len(m.ts))
			}
			var scanned []string
			st.Scan(func(t *tuple.Tuple) bool { scanned = append(scanned, t.String()); return true })
			all := m.matches(Query{})
			slices.Sort(scanned)
			slices.Sort(all)
			if !slices.Equal(scanned, all) {
				t.Errorf("Scan visited %d tuples, model holds %d", len(scanned), len(all))
			}
			// Early stop: the first match only.
			n := 0
			st.Select(Query{Prefix: []tuple.Value{m.ts[0].Field(0)}}, func(*tuple.Tuple) bool { n++; return false })
			if n != 1 {
				t.Errorf("Select visited %d tuples after fn returned false", n)
			}
		})
	}
}

// setHashMask narrows the hash of the stores that have the test seam.
func setHashMask(st Store, mask uint64) {
	switch st := st.(type) {
	case *hashStore:
		st.hashMask = mask
	case *colStore:
		st.hashMask = mask
	}
}

// TestHashScanOrderIsDeterministic: Scan order on a hash table used to be
// Go-map order; it is now a function of the insert sequence alone.
func TestHashScanOrderIsDeterministic(t *testing.T) {
	s := batchTestSchema()
	for name, f := range map[string]StoreFactory{"hash": NewHashStore(1), "arrayhash": NewArrayOfHashSets(1, 0, 5)} {
		var orders [2][]string
		for run := range orders {
			st, r := f(s), rand.New(rand.NewSource(11))
			for i := 0; i < 5000; i++ {
				st.Insert(tuple.New(s, tuple.Int(r.Int63n(900)), tuple.Int(r.Int63n(6)), tuple.Int(r.Int63n(3))))
			}
			st.Scan(func(t *tuple.Tuple) bool { orders[run] = append(orders[run], t.String()); return true })
		}
		if !slices.Equal(orders[0], orders[1]) {
			t.Errorf("%s: two identical insert sequences scanned in different orders", name)
		}
	}
}

// TestHashStoreConcurrentInsertSelectScan runs writers, point readers and
// scanners on one store — the -race check of the unlocked snapshot walks.
// Readers must only ever see complete, matching tuples; every tuple is
// there afterwards.
func TestHashStoreConcurrentInsertSelectScan(t *testing.T) {
	s := batchTestSchema()
	for name, f := range map[string]StoreFactory{"hash": NewHashStore(1), "arrayhash": NewArrayOfHashSets(0, 0, 63)} {
		t.Run(name, func(t *testing.T) {
			st := f(s)
			const writers, perWriter = 4, 3000
			var wg, readers sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						st.Insert(tuple.New(s, tuple.Int(int64(i%64)), tuple.Int(int64(w)), tuple.Int(int64(i))))
					}
				}()
			}
			for rd := 0; rd < 2; rd++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for key := int64(0); ; key = (key + 1) % 64 {
						select {
						case <-stop:
							return
						default:
						}
						st.Select(Query{Prefix: []tuple.Value{tuple.Int(key)}}, func(x *tuple.Tuple) bool {
							if x.Field(0).AsInt() != key {
								t.Errorf("Select(%d) visited %v", key, x)
							}
							return true
						})
						seen := 0
						st.Scan(func(x *tuple.Tuple) bool { seen++; return x.Schema() == s })
						if seen > writers*perWriter {
							t.Errorf("Scan visited %d tuples, at most %d exist", seen, writers*perWriter)
						}
					}
				}()
			}
			wg.Wait()
			close(stop)
			readers.Wait()
			if st.Len() != writers*perWriter {
				t.Fatalf("Len = %d, want %d", st.Len(), writers*perWriter)
			}
			for key := int64(0); key < 64; key++ {
				if n := len(selected(st, Query{Prefix: []tuple.Value{tuple.Int(key)}})); n != writers*(perWriter/64+boolInt(key < perWriter%64)) {
					t.Errorf("key %d holds %d tuples", key, n)
				}
			}
		})
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// FuzzHashStores decodes bytes into inserts, duplicates, selects and scans
// on every store with a hash index — hash:1 unmasked and with its hash
// masked to two bits, arrayhash over column 0, inthash:1, and columnar
// unmasked and masked — and checks each against hashModel. Tuples are
// three ints (a in 0..15, b in 0..7, c in 0..3) built from one byte each.
// Each op is one byte, low two bits first:
//
//	0  insert 1 + op>>2&3 tuples, per tuple (op>>4&1 == 0) or as one
//	   InsertBatch (1)
//	1  re-insert a copy of stored tuple number next() mod Len: a duplicate
//	2  Select with prefix length op>>2&3 (one byte per value), a Where
//	   keeping even c when op>>4&1, stopping after 1 + op>>5 matches or
//	   never when that is 8
//	3  Scan every tuple, then Len
//
// A store whose Select is indexed at the prefix length must return the
// model's matches in insertion order (inthash walks its chains newest
// first, so it and the scan fallbacks are compared as sets).
func FuzzHashStores(f *testing.F) {
	f.Add([]byte{0x1c, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1, 0, 0xe6, 4, 0x0a, 4, 2, 3})
	f.Add([]byte{0x0c, 0, 0, 0, 0, 1, 0, 0, 0, 1, 16, 0, 1, 1, 1, 3, 0x06, 16, 0x26, 0, 2, 3})
	f.Add([]byte{0x1c, 3, 3, 3, 19, 3, 3, 35, 3, 3, 51, 3, 3, 0x04, 3, 0xf6, 3, 0xfa, 35, 2})
	s := batchTestSchema()
	type store struct {
		name    string
		factory StoreFactory
		mask    uint64
		ordered bool // Select in insertion order once the prefix reaches column 0
	}
	stores := []store{
		{"hash:1", NewHashStore(1), ^uint64(0), true},
		{"hash:1-masked", NewHashStore(1), 0x3, true},
		{"arrayhash", NewArrayOfHashSets(0, 0, 15), 0, true},
		{"inthash:1", NewIntHashStore(1), 0, false},
		{"columnar", NewColumnarStore, ^uint64(0), true},
		{"columnar-masked", NewColumnarStore, 0x3, true},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sts := make([]Store, len(stores))
		for i, c := range stores {
			sts[i] = c.factory(s)
			setHashMask(sts[i], c.mask)
		}
		m := &hashModel{seen: map[string]bool{}}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		tup := func() *tuple.Tuple {
			return tuple.New(s, tuple.Int(int64(next()&15)), tuple.Int(int64(next()&7)), tuple.Int(int64(next()&3)))
		}
		insert := func(run []*tuple.Tuple, batch bool) {
			var want []string
			for _, x := range run {
				if m.insert(x) {
					want = append(want, x.String())
				}
			}
			for i, st := range sts {
				var got []string
				if batch {
					for _, x := range InsertBatch(st, run, nil) {
						got = append(got, x.String())
					}
				} else {
					for _, x := range run {
						if st.Insert(x) {
							got = append(got, x.String())
						}
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: inserted %v, model %v", stores[i].name, got, want)
				}
			}
		}
		for len(data) > 0 {
			op := next()
			switch op & 3 {
			case 0:
				run := make([]*tuple.Tuple, 1+op>>2&3)
				for i := range run {
					run[i] = tup()
				}
				insert(run, op>>4&1 == 1)
			case 1:
				if len(m.ts) > 0 {
					x := m.ts[int(next())%len(m.ts)]
					insert([]*tuple.Tuple{tuple.New(s, x.Field(0), x.Field(1), x.Field(2))}, false)
				}
			case 2:
				probe := tup()
				q := Query{}
				for i := 0; i < int(op>>2&3); i++ {
					q.Prefix = append(q.Prefix, probe.Field(i))
				}
				if op>>4&1 == 1 {
					q.Where = func(x *tuple.Tuple) bool { return x.Field(2).AsInt()%2 == 0 }
				}
				limit := 1 + int(op>>5)
				if limit == 8 {
					limit = math.MaxInt
				}
				want := m.matches(q)
				for i, st := range sts {
					var got []string
					st.Select(q, func(x *tuple.Tuple) bool { got = append(got, x.String()); return len(got) < limit })
					if stores[i].ordered && len(q.Prefix) >= 1 {
						if !slices.Equal(got, want[:min(limit, len(want))]) {
							t.Fatalf("%s: Select(%v, where=%v, limit %d) = %v, want %v", stores[i].name, q.Prefix, q.Where != nil, limit, got, want)
						}
						continue
					}
					if len(got) != min(limit, len(want)) || slices.ContainsFunc(got, func(g string) bool { return !slices.Contains(want, g) }) {
						t.Fatalf("%s: Select(%v, where=%v, limit %d) = %v, want %d of %v", stores[i].name, q.Prefix, q.Where != nil, limit, got, min(limit, len(want)), want)
					}
					if limit == math.MaxInt {
						slices.Sort(got)
						if !slices.Equal(got, slices.Sorted(slices.Values(want))) {
							t.Fatalf("%s: Select(%v) = %v, want %v", stores[i].name, q.Prefix, got, want)
						}
					}
				}
			case 3:
				all := slices.Sorted(slices.Values(m.strs))
				for i, st := range sts {
					var got []string
					st.Scan(func(x *tuple.Tuple) bool { got = append(got, x.String()); return true })
					slices.Sort(got)
					if !slices.Equal(got, all) || st.Len() != len(m.ts) {
						t.Fatalf("%s: Scan = %v, Len %d; model %v", stores[i].name, got, st.Len(), all)
					}
				}
			}
		}
	})
}
