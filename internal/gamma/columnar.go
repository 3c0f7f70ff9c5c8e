package gamma

import (
	"sync"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// This file implements the compressed append-only columnar store — the
// scan-oriented Gamma backend the store planner picks for append-mostly
// tables that are read by full scans (or not read at all). Instead of
// retaining one boxed *Tuple per row like the NavigableSet and hash
// backends, it keeps one typed slice per column: ints and bools as int64,
// floats as float64, and strings dictionary-encoded as int64 ids into a
// shared dictionary (the compression — a table with a low-cardinality
// string column stores each distinct string once). Tuples are materialised
// on demand only for rows that survive the column-level prefix filter, so
// a selective Select touches the key columns' slices sequentially — the
// cache-friendly stride the paper's native-array stores (§6.4) get from
// flat arrays — and rejected rows never allocate.

// colStore is the columnar Store implementation.
type colStore struct {
	mu     sync.RWMutex
	schema *tuple.Schema
	n      int
	nums   [][]int64   // per column: int/bool payloads or string dict ids
	floats [][]float64 // per column: float payloads
	dict   map[string]int64
	strs   []string           // dict id -> string
	seen   map[uint64][]int32 // full tuple hash -> row ids (set-semantics dedup)
}

// NewColumnarStore returns the compressed append-only columnar store for s.
func NewColumnarStore(s *tuple.Schema) Store {
	return &colStore{
		schema: s,
		nums:   make([][]int64, s.Arity()),
		floats: make([][]float64, s.Arity()),
		seen:   make(map[uint64][]int32),
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

func (cs *colStore) insertLocked(t *tuple.Tuple) bool {
	h := t.Hash()
	for _, r := range cs.seen[h] {
		if cs.rowEqual(r, t) {
			return false
		}
	}
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
	cs.seen[h] = append(cs.seen[h], int32(cs.n))
	cs.n++
	return true
}

func (cs *colStore) Insert(t *tuple.Tuple) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.insertLocked(t)
}

// InsertBatch appends a run of tuples under one lock episode — the batched
// put path; appends into columnar slices are the cheapest insert any
// backend offers, which is why the planner likes this store for
// append-mostly tables.
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
	return cs.n
}

func (cs *colStore) Scan(fn func(*tuple.Tuple) bool) {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	for r := int32(0); r < int32(cs.n); r++ {
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

func (cs *colStore) Select(q Query, fn func(*tuple.Tuple) bool) {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	var buf [tuple.InlineFields]colPred
	preds, ok := cs.compilePrefix(buf[:0], q.Prefix)
	if !ok {
		return
	}
	for r := int32(0); r < int32(cs.n); r++ {
		if !cs.matchPrefix(r, preds) {
			continue
		}
		if t := cs.materialise(r); q.whereOK(t) && !fn(t) {
			return
		}
	}
}
