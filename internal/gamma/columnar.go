package gamma

import (
	"sync"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// This file implements the compressed append-only columnar store — the
// Gamma backend the store planner picks for append-mostly tables that are
// read by full scans or by point lookups on their leading column (or not
// read at all). Instead of retaining one boxed *Tuple per row like the
// NavigableSet and hash backends, it keeps one typed slice per column:
// ints and bools as int64, floats as float64, and strings
// dictionary-encoded as int64 ids into a shared dictionary (the
// compression — a table with a low-cardinality string column stores each
// distinct string once). Two open-addressing oaTables (inthash.go) index
// the rows without boxing them either: one on the full tuple hash, for
// set-semantics dedup, and one on the hash of column 0, whose entries
// anchor per-value chains threaded through next. A Select with a non-empty
// prefix walks one chain; an empty prefix and Scan walk the rows in order.
// Either way the prefix is tested on the column slices, and tuples are
// materialised only for rows that survive it, so rejected rows never
// allocate.

// colStore is the columnar Store implementation.
type colStore struct {
	mu     sync.RWMutex
	schema *tuple.Schema
	nums   [][]int64   // per column: int/bool payloads or string dict ids
	floats [][]float64 // per column: float payloads
	dict   map[string]int64
	strs   []string // dict id -> string
	dedup  oaTable  // full tuple hash -> row (set-semantics dedup)
	keys   oaTable  // column-0 hash -> newest row of its chain
	// next holds one entry per stored row (its length is the row count),
	// threading each column-0 hash's rows into a circular chain in
	// insertion order: the newest row (the keys entry) links to the oldest,
	// so appending and an in-order walk are both O(1) per row.
	next []int32
	// hashMask is all ones outside tests; a narrow mask is the test seam
	// that forces distinct rows and column-0 values onto one 64-bit hash.
	hashMask uint64
}

// NewColumnarStore returns the compressed append-only columnar store for s.
func NewColumnarStore(s *tuple.Schema) Store {
	return &colStore{
		schema:   s,
		nums:     make([][]int64, s.Arity()),
		floats:   make([][]float64, s.Arity()),
		hashMask: ^uint64(0),
	}
}

func (cs *colStore) StoreKind() string { return "columnar" }

// rowEqual compares stored row r against t column by column, on the typed
// payloads (no materialisation).
func (cs *colStore) rowEqual(r int32, t *tuple.Tuple) bool {
	for i, c := range cs.schema.Columns {
		v := t.Field(i)
		switch c.Kind {
		case tuple.KindFloat:
			if !v.Equal(tuple.Float(cs.floats[i][r])) {
				return false
			}
		case tuple.KindString:
			id, ok := cs.dict[v.AsString()]
			if !ok || id != cs.nums[i][r] {
				return false
			}
		case tuple.KindBool:
			if v.AsBool() != (cs.nums[i][r] != 0) {
				return false
			}
		default:
			if v.AsInt() != cs.nums[i][r] {
				return false
			}
		}
	}
	return true
}

// value reconstructs one cell as a Value (a stack struct, not a boxed row).
func (cs *colStore) value(r int32, col int) tuple.Value {
	switch cs.schema.Columns[col].Kind {
	case tuple.KindFloat:
		return tuple.Float(cs.floats[col][r])
	case tuple.KindString:
		return tuple.String_(cs.strs[cs.nums[col][r]])
	case tuple.KindBool:
		return tuple.Bool(cs.nums[col][r] != 0)
	default:
		return tuple.Int(cs.nums[col][r])
	}
}

// materialise rebuilds row r as a Tuple, for callers that matched it — the
// one allocation a matched row costs (vals stays on the stack up to
// tuple.InlineFields columns).
func (cs *colStore) materialise(r int32) *tuple.Tuple {
	var buf [tuple.InlineFields]tuple.Value
	vals := buf[:0]
	for i := range cs.schema.Columns {
		vals = append(vals, cs.value(r, i))
	}
	return tuple.New(cs.schema, vals...)
}

// keyHash is the chain hash of a column-0 value. Value.Hash agrees with
// Value.Equal (floats are canonical), so -0.0 and NaN find their chains.
func (cs *colStore) keyHash(v tuple.Value) uint64 {
	return finalizeHash(v.Hash(tuple.HashSeed)) & cs.hashMask
}

func (cs *colStore) insertLocked(t *tuple.Tuple) bool {
	h := finalizeHash(t.Hash()) & cs.hashMask
	if cs.dedup.find(h, func(r int32) bool { return cs.rowEqual(r, t) }) >= 0 {
		return false
	}
	r := int32(len(cs.next))
	for i, c := range cs.schema.Columns {
		v := t.Field(i)
		switch c.Kind {
		case tuple.KindFloat:
			cs.floats[i] = append(cs.floats[i], v.AsFloat())
		case tuple.KindString:
			s := v.AsString()
			id, ok := cs.dict[s]
			if !ok {
				if cs.dict == nil {
					cs.dict = make(map[string]int64)
				}
				id = int64(len(cs.strs))
				cs.dict[s] = id
				cs.strs = append(cs.strs, s)
			}
			cs.nums[i] = append(cs.nums[i], id)
		case tuple.KindBool:
			var b int64
			if v.AsBool() {
				b = 1
			}
			cs.nums[i] = append(cs.nums[i], b)
		default:
			cs.nums[i] = append(cs.nums[i], v.AsInt())
		}
	}
	cs.dedup.put(h, func(int32) bool { return false }, r)
	if tail := cs.keys.put(cs.keyHash(t.Field(0)), anyRow, r); tail < 0 {
		cs.next = append(cs.next, r) // a chain of one
	} else {
		cs.next = append(cs.next, cs.next[tail]) // the chain's oldest row
		cs.next[tail] = r
	}
	return true
}

func (cs *colStore) Insert(t *tuple.Tuple) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.insertLocked(t)
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
		if !fn(cs.materialise(r)) {
			return
		}
	}
}

// colPred is one compiled prefix-column predicate: string and int/bool
// values are resolved to their raw int64 encoding once per query, so the
// per-row filter is an int64 compare against the column slice. Float
// columns keep the Value fallback for its NaN-equals-NaN semantics.
type colPred struct {
	col  int
	kind tuple.Kind
	n    int64       // int/bool payload or string dict id
	v    tuple.Value // float fallback
}

// compilePrefix resolves a query's equality prefix against the column
// encodings, appending one predicate per prefix value to preds. ok is
// false when the prefix can never match: a value of the wrong kind for its
// column (Value.Equal is false across kinds), or a string absent from the
// dictionary.
func (cs *colStore) compilePrefix(preds []colPred, prefix []tuple.Value) ([]colPred, bool) {
	for i, v := range prefix {
		kind := cs.schema.Columns[i].Kind
		preds = append(preds, colPred{col: i, kind: kind})
		switch kind {
		case tuple.KindFloat:
			preds[i].v = v
		case tuple.KindString:
			if v.Kind() != tuple.KindString {
				return nil, false
			}
			id, ok := cs.dict[v.AsString()]
			if !ok {
				return nil, false
			}
			preds[i].n = id
		case tuple.KindBool:
			if v.Kind() != tuple.KindBool {
				return nil, false
			}
			if v.AsBool() {
				preds[i].n = 1
			}
		default:
			if v.Kind() != tuple.KindInt {
				return nil, false
			}
			preds[i].n = v.AsInt()
		}
	}
	return preds, true
}

// matchPrefix tests the compiled predicates directly on the column
// slices; rows rejected here are never materialised.
func (cs *colStore) matchPrefix(r int32, preds []colPred) bool {
	for _, p := range preds {
		if p.kind == tuple.KindFloat {
			if !tuple.Float(cs.floats[p.col][r]).Equal(p.v) {
				return false
			}
		} else if cs.nums[p.col][r] != p.n {
			return false
		}
	}
	return true
}

// Select walks the chain of the prefix's column-0 value, or every row when
// the prefix is empty; both visit rows in insertion order. Column-0 values
// that collide on all 64 bits share a chain, and matchPrefix drops the
// strangers.
func (cs *colStore) Select(q Query, fn func(*tuple.Tuple) bool) {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	var buf [tuple.InlineFields]colPred
	preds, ok := cs.compilePrefix(buf[:0], q.Prefix)
	if !ok {
		return
	}
	visit := func(r int32) bool {
		if !cs.matchPrefix(r, preds) {
			return true
		}
		t := cs.materialise(r)
		return !q.whereOK(t) || fn(t)
	}
	if len(preds) == 0 {
		for r := int32(0); r < int32(len(cs.next)) && visit(r); r++ {
		}
		return
	}
	tail := cs.keys.find(cs.keyHash(q.Prefix[0]), anyRow)
	if tail < 0 {
		return
	}
	for r := cs.next[tail]; visit(r) && r != tail; r = cs.next[r] {
	}
}
