package gamma

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// This file implements the compressed append-only columnar store — the
// Gamma backend the store planners pick for append-mostly tables: tables
// read by full scans, by equality prefixes of at least k columns, or not
// read at all. Instead of retaining one boxed *Tuple per row like the
// NavigableSet and hash backends, it keeps every row as arity 64-bit words
// in one flat slice: ints as they are, bools as 0/1, floats as their bits
// (tuple.Float is canonical, so equal floats have equal bits) and strings
// as ids into a shared dictionary (the compression — a table with a
// low-cardinality string column stores each distinct string once).
// Open-addressing oaTables (oatable.go) index the rows without boxing them
// either: one on the first k words, whose entries anchor per-key chains
// threaded through next, and the dedup tables on all the words, for
// set-semantics dedup. Only keys with two or more rows have theirs in
// dedup, so a row with a new key is indexed once. A Select whose prefix
// covers the k key columns walks one chain and compares only the words past
// k; a shorter prefix and Scan walk the rows in order. Either way the
// prefix is tested on the words, and tuples are materialised only for rows
// that survive it, so rejected rows never allocate. ScanRows, the
// checkpoint's read, materialises none, and InsertRow, the seed's write,
// takes none.

// colStore is the columnar Store implementation.
type colStore struct {
	mu     sync.RWMutex
	schema *tuple.Schema
	kinds  []tuple.Kind // per column
	k      int          // key columns: chains are exact on the first k words
	rows   []int64      // row-major, len(kinds) words per row
	dict   map[string]int64
	strs   []string // dict id -> string
	// dedup maps row hashes to the rows of keys with two or more rows
	// (set-semantics dedup), split by the top bits of the key hash: equal
	// rows have equal keys, and a run of one key's rows — a sorted batch —
	// probes one small table that stays in cache. It stays empty when k is
	// the arity.
	dedup [16]oaTable
	keys  oaTable // key hash -> newest row of its chain
	// next holds one entry per stored row (its length is the row count),
	// threading each key's rows into a circular chain in insertion order:
	// the newest row (the keys entry) links to the oldest, so appending and
	// an in-order walk are both O(1) per row.
	next []int32
	// hashMask is all ones outside tests; a narrow mask is the test seam
	// that forces distinct rows and keys onto one 64-bit hash.
	hashMask uint64
}

// NewColumnarStore returns the compressed append-only columnar store keyed
// on the first k columns of its schema. A zero-column table takes k = 1 and
// keeps its one possible row on a chain keyed on no words.
func NewColumnarStore(k int) StoreFactory {
	return func(s *tuple.Schema) Store {
		if k < 1 || k > max(s.Arity(), 1) {
			panic(fmt.Sprintf("jstar: columnar store on %s: k=%d out of range", s.Name, k))
		}
		kinds := make([]tuple.Kind, s.Arity())
		for i, c := range s.Columns {
			kinds[i] = c.Kind
		}
		return &colStore{schema: s, kinds: kinds, k: min(k, s.Arity()), hashMask: ^uint64(0)}
	}
}

// ColumnarSpec is the kind spec of a columnar store keyed on k columns:
// "columnar" for k <= 1, else "columnar:k".
func ColumnarSpec(k int) string {
	if k <= 1 {
		return "columnar"
	}
	return fmt.Sprintf("columnar:%d", k)
}

func (cs *colStore) StoreKind() string { return ColumnarSpec(cs.k) }

// row returns stored row r's words.
func (cs *colStore) row(r int32) []int64 {
	n := len(cs.kinds)
	return cs.rows[int(r)*n : int(r)*n+n]
}

// scalar encodes v, a value of non-string kind k, as its row word.
func scalar(k tuple.Kind, v tuple.Value) int64 {
	switch k {
	case tuple.KindFloat:
		return int64(math.Float64bits(v.AsFloat()))
	case tuple.KindBool:
		if v.AsBool() {
			return 1
		}
		return 0
	}
	return v.AsInt()
}

// value decodes word w of column col as a Value (a stack struct, not a
// boxed row).
func (cs *colStore) value(col int, w int64) tuple.Value {
	switch cs.kinds[col] {
	case tuple.KindFloat:
		return tuple.Float(math.Float64frombits(uint64(w)))
	case tuple.KindString:
		return tuple.String_(cs.strs[w])
	case tuple.KindBool:
		return tuple.Bool(w != 0)
	}
	return tuple.Int(w)
}

// materialise rebuilds a stored row as a Tuple, for callers that matched
// it — the one allocation a matched row costs (vals stays on the stack up
// to tuple.InlineFields columns).
func (cs *colStore) materialise(row []int64) *tuple.Tuple {
	var buf [tuple.InlineFields]tuple.Value
	vals := buf[:0]
	for i, w := range row {
		vals = append(vals, cs.value(i, w))
	}
	return tuple.New(cs.schema, vals...)
}

// hash folds words — a row's k key words (or a query's) for the keys
// index, or all of them for dedup.
func (cs *colStore) hash(words []int64) uint64 {
	h := uint64(tuple.HashSeed)
	for _, w := range words {
		h = mixInt(h, w)
	}
	return finalizeHash(h) & cs.hashMask
}

// intern returns s's dictionary id, adding s if it is new.
func (cs *colStore) intern(s string) int64 {
	id, ok := cs.dict[s]
	if !ok {
		if cs.dict == nil {
			cs.dict = make(map[string]int64)
		}
		id = int64(len(cs.strs))
		cs.dict[s] = id
		cs.strs = append(cs.strs, s)
	}
	return id
}

// grow makes room for one more row and returns where it starts.
func (cs *colStore) grow() int {
	n := len(cs.rows)
	if n+len(cs.kinds) > cap(cs.rows) {
		cs.rows = slices.Grow(cs.rows, max(n, 64)) // double: append grows large slices by 1.25x
	}
	return n
}

// word encodes v, a value of column kind k, as its row word, interning a
// string.
func (cs *colStore) word(k tuple.Kind, v tuple.Value) int64 {
	switch k {
	case tuple.KindInt:
		return v.AsInt()
	case tuple.KindString:
		return cs.intern(v.AsString())
	}
	return scalar(k, v)
}

// insertLocked appends t's words and indexes them as a row (indexLocked).
func (cs *colStore) insertLocked(t *tuple.Tuple) bool {
	n := cs.grow()
	for i, k := range cs.kinds {
		cs.rows = append(cs.rows, cs.word(k, t.Field(i)))
	}
	return cs.indexLocked(n)
}

// indexLocked puts the row appended at n as its key's newest, then undoes
// both if the key's chain holds an equal row: a new key needs no dedup
// probe, and a chain of one compares its row directly. A duplicate's
// strings are all in the dictionary already, so interning never grows it
// for one.
func (cs *colStore) indexLocked(n int) bool {
	row := cs.rows[n:]
	key := row[:cs.k]
	kh := cs.hash(key)
	eqKey := func(o int32) bool { return slices.Equal(cs.row(o)[:cs.k], key) }
	r := int32(len(cs.next))
	tail := cs.keys.put(kh, eqKey, r)
	if tail < 0 {
		cs.next = append(cs.next, r) // a chain of one
		return true
	}
	dd := &cs.dedup[kh>>60]
	h := cs.hash(row)
	var dup bool
	if cs.next[tail] == tail { // a chain of one: its row is not in dedup yet
		if dup = slices.Equal(cs.row(tail), row); !dup {
			dd.put(cs.hash(cs.row(tail)), never, tail)
		}
	} else {
		dup = dd.find(h, func(o int32) bool { return slices.Equal(cs.row(o), row) }) >= 0
	}
	if dup {
		cs.keys.put(kh, eqKey, tail) // the key's newest row again
		cs.rows = cs.rows[:n]
		return false
	}
	dd.put(h, never, r)
	cs.next = append(cs.next, cs.next[tail]) // the chain's oldest row
	cs.next[tail] = r
	return true
}

// never makes oaTable.put add an entry: dedup is probed with find first.
func never(int32) bool { return false }

func (cs *colStore) Insert(t *tuple.Tuple) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.insertLocked(t)
}

// InsertRow appends the row's words as Insert appends its tuple's.
func (cs *colStore) InsertRow(row []tuple.Value) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	n := cs.grow()
	for i, k := range cs.kinds {
		cs.rows = append(cs.rows, cs.word(k, row[i]))
	}
	return cs.indexLocked(n)
}

// InsertBatch appends a run of tuples under one lock episode — the batched
// put path.
func (cs *colStore) InsertBatch(ts []*tuple.Tuple, live []*tuple.Tuple) []*tuple.Tuple {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, t := range ts {
		if cs.insertLocked(t) {
			live = append(live, t)
		}
	}
	return live
}

func (cs *colStore) Len() int {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	return len(cs.next)
}

func (cs *colStore) Scan(fn func(*tuple.Tuple) bool) {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	for r := int32(0); r < int32(len(cs.next)); r++ {
		if !fn(cs.materialise(cs.row(r))) {
			return
		}
	}
}

// ScanRows is Scan without the tuples: each row's words are decoded into
// one reused row, under one read-lock episode.
func (cs *colStore) ScanRows(fn func(row []tuple.Value) bool) {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	row := make([]tuple.Value, len(cs.kinds))
	for r := int32(0); r < int32(len(cs.next)); r++ {
		for i, w := range cs.row(r) {
			row[i] = cs.value(i, w)
		}
		if !fn(row) {
			return
		}
	}
}

// prefixWords encodes a query's equality prefix as row words, appending to
// buf. ok is false when the prefix can never match: a value of the wrong
// kind for its column (Value.Equal is false across kinds), or a string
// absent from the dictionary.
func (cs *colStore) prefixWords(buf []int64, prefix []tuple.Value) ([]int64, bool) {
	for i, v := range prefix {
		k := cs.kinds[i]
		if v.Kind() != k {
			return nil, false
		}
		if k != tuple.KindString {
			buf = append(buf, scalar(k, v))
			continue
		}
		id, ok := cs.dict[v.AsString()]
		if !ok {
			return nil, false
		}
		buf = append(buf, id)
	}
	return buf, true
}

// Select walks the chain of the prefix's k key words when the prefix
// covers them, else every row; both visit rows in insertion order. Keys
// that collide on all 64 bits keep separate chains (the keys index
// compares the key words), so a chain walk tests only the words past k.
func (cs *colStore) Select(q Query, fn func(*tuple.Tuple) bool) {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	var buf [tuple.InlineFields]int64
	want, ok := cs.prefixWords(buf[:0], q.Prefix)
	if !ok {
		return
	}
	n := len(cs.kinds)
	if len(want) < cs.k {
		for at := 0; at < len(cs.rows); at += n {
			if row := cs.rows[at : at+n]; hasPrefix(row, want, 0) && !cs.emit(row, q, fn) {
				return
			}
		}
		return
	}
	key := want[:cs.k]
	tail := cs.keys.find(cs.hash(key), func(r int32) bool { return slices.Equal(cs.row(r)[:cs.k], key) })
	if tail < 0 {
		return
	}
	for r := cs.next[tail]; ; r = cs.next[r] {
		row := cs.rows[int(r)*n : int(r)*n+n]
		if hasPrefix(row, want, cs.k) && !cs.emit(row, q, fn) || r == tail {
			return
		}
	}
}

// hasPrefix reports whether row's words from..len(want) equal want's.
func hasPrefix(row, want []int64, from int) bool {
	for i := from; i < len(want); i++ {
		if row[i] != want[i] {
			return false
		}
	}
	return true
}

// emit hands fn the row, materialised, if it passes q.Where, and returns
// false once fn has.
func (cs *colStore) emit(row []int64, q Query, fn func(*tuple.Tuple) bool) bool {
	t := cs.materialise(row)
	return !q.whereOK(t) || fn(t)
}
