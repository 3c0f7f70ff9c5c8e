package gamma

import (
	"fmt"
	"sync"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// This file implements the int-specialised open-addressing hash store —
// the planner's backend for all-int tables that are probed by equality
// prefix (point-query-heavy in the §1.5 statistics) or hammered with
// duplicate puts. Rows live in a flat []int64 (arity values per row, no
// boxed tuples, no map buckets); two linear-probing open-addressing tables
// per shard index them: one on the full row (O(1) set-semantics dedup, the
// cost that dominates dup-heavy trigger tables) and one on the first k
// columns, whose entries head per-key chains threaded through a parallel
// next[] slice (O(chain) prefix Selects). Shards are picked from the high
// bits of the key hash so the probe sequences inside a shard still use the
// well-mixed low bits.

const intShards = 64

// intHashStore is the int-specialised open-addressing Store.
type intHashStore struct {
	k, arity int
	schema   *tuple.Schema
	shards   [intShards]intShard
}

type intShard struct {
	mu    sync.RWMutex
	rows  []int64 // flat rows, arity values each
	next  []int32 // per row: next row in its key chain, -1 ends
	keys  oaTable // key-prefix hash -> head row of chain
	dedup oaTable // full-row hash -> row
}

// NewIntHashStore returns a store for an all-int table, keyed on its first
// k columns. It panics on non-int columns or k out of range (static
// errors; FactoryFor reports them as errors instead).
func NewIntHashStore(k int) StoreFactory {
	return func(s *tuple.Schema) Store {
		if k < 1 || k > s.Arity() {
			panic(fmt.Sprintf("jstar: inthash store on %s: k=%d out of range", s.Name, k))
		}
		if !AllIntColumns(s) {
			panic(fmt.Sprintf("jstar: inthash store on %s: requires all-int columns", s.Name))
		}
		return &intHashStore{k: k, arity: s.Arity(), schema: s}
	}
}

func (st *intHashStore) StoreKind() string { return fmt.Sprintf("inthash:%d", st.k) }

// mixInt folds one int64 into a running hash (FNV-style multiply-xor).
func mixInt(h uint64, v int64) uint64 {
	return (h ^ uint64(v)) * 0x100000001b3
}

// finalizeHash avalanches the accumulated hash so the low bits used by the
// probe masks are well mixed (the fmix step of Murmur3).
func finalizeHash(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// hashTuple returns the key hash (first k columns) and full-row hash of t.
func (st *intHashStore) hashTuple(t *tuple.Tuple) (kh, fh uint64) {
	h := uint64(tuple.HashSeed)
	for i := 0; i < st.k; i++ {
		h = mixInt(h, t.Field(i).AsInt())
	}
	kh = finalizeHash(h)
	for i := st.k; i < st.arity; i++ {
		h = mixInt(h, t.Field(i).AsInt())
	}
	return kh, finalizeHash(h)
}

// hashPrefix returns the key hash of a fully-specified int query prefix;
// ok is false when any of the first k values is not an int (such a query
// can never match an all-int table).
func (st *intHashStore) hashPrefix(prefix []tuple.Value) (uint64, bool) {
	h := uint64(tuple.HashSeed)
	for i := 0; i < st.k; i++ {
		if prefix[i].Kind() != tuple.KindInt {
			return 0, false
		}
		h = mixInt(h, prefix[i].AsInt())
	}
	return finalizeHash(h), true
}

func (st *intHashStore) shardFor(kh uint64) *intShard {
	return &st.shards[kh>>(64-6)] // top 6 bits; probe masks use the low bits
}

func (sh *intShard) row(arity int, r int32) []int64 {
	return sh.rows[int(r)*arity : int(r)*arity+arity]
}

func (st *intHashStore) Insert(t *tuple.Tuple) bool {
	kh, fh := st.hashTuple(t)
	sh := st.shardFor(kh)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	eqRow := func(r int32) bool {
		row := sh.row(st.arity, r)
		for i := 0; i < st.arity; i++ {
			if row[i] != t.Field(i).AsInt() {
				return false
			}
		}
		return true
	}
	if sh.dedup.find(fh, eqRow) >= 0 {
		return false
	}
	r := int32(len(sh.next))
	for i := 0; i < st.arity; i++ {
		sh.rows = append(sh.rows, t.Field(i).AsInt())
	}
	eqKey := func(o int32) bool {
		row := sh.row(st.arity, o)
		for i := 0; i < st.k; i++ {
			if row[i] != t.Field(i).AsInt() {
				return false
			}
		}
		return true
	}
	// Prepend to the key's chain: the previous head (or -1) becomes next.
	sh.next = append(sh.next, sh.keys.put(kh, eqKey, r))
	sh.dedup.put(fh, func(int32) bool { return false }, r)
	return true
}

func (st *intHashStore) Len() int {
	n := 0
	for i := range st.shards {
		st.shards[i].mu.RLock()
		n += len(st.shards[i].next)
		st.shards[i].mu.RUnlock()
	}
	return n
}

// materialise rebuilds one stored row as a Tuple — one allocation (vals
// stays on the stack up to tuple.InlineFields columns).
func (st *intHashStore) materialise(sh *intShard, r int32) *tuple.Tuple {
	var buf [tuple.InlineFields]tuple.Value
	vals := buf[:0]
	for _, v := range sh.row(st.arity, r) {
		vals = append(vals, tuple.Int(v))
	}
	return tuple.New(st.schema, vals...)
}

func (st *intHashStore) Scan(fn func(*tuple.Tuple) bool) {
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for r := int32(0); r < int32(len(sh.next)); r++ {
			if !fn(st.materialise(sh, r)) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}

// selectKeyed walks the chain of one key hash, filtering on the raw int
// row before materialising. Caller holds the shard read lock.
func (st *intHashStore) selectKeyed(sh *intShard, kh uint64, q Query, fn func(*tuple.Tuple) bool) bool {
	head := sh.keys.find(kh, func(r int32) bool {
		row := sh.row(st.arity, r)
		for i := 0; i < st.k; i++ {
			if !q.Prefix[i].Equal(tuple.Int(row[i])) {
				return false
			}
		}
		return true
	})
	for r := head; r >= 0; r = sh.next[r] {
		row := sh.row(st.arity, r)
		match := true
		for i := st.k; i < len(q.Prefix); i++ {
			if !q.Prefix[i].Equal(tuple.Int(row[i])) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		t := st.materialise(sh, r)
		if q.Where == nil || q.Where(t) {
			if !fn(t) {
				return false
			}
		}
	}
	return true
}

func (st *intHashStore) Select(q Query, fn func(*tuple.Tuple) bool) {
	if len(q.Prefix) < st.k {
		// Under-specified query: full scan with residual filter.
		st.Scan(func(t *tuple.Tuple) bool {
			if q.Matches(t) {
				return fn(t)
			}
			return true
		})
		return
	}
	kh, ok := st.hashPrefix(q.Prefix)
	if !ok {
		return // non-int prefix value: nothing can match
	}
	sh := st.shardFor(kh)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st.selectKeyed(sh, kh, q, fn)
}

// oaTable is a linear-probing open-addressing table mapping 64-bit hashes
// to row ids — the index under intShard here, under hashShard (the hash
// and array-of-hashsets stores, gamma.go) and under colStore (columnar.go).
// Distinct keys may share a hash; find/put take an equality callback to
// disambiguate. The caller provides synchronisation.
type oaTable struct {
	hashes []uint64
	rows   []int32 // row id + 1; 0 marks an empty slot
	n      int
}

// find returns the row stored under (h, eq), or -1.
func (t *oaTable) find(h uint64, eq func(row int32) bool) int32 {
	if len(t.rows) == 0 {
		return -1
	}
	mask := uint64(len(t.rows) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		r := t.rows[i]
		if r == 0 {
			return -1
		}
		if t.hashes[i] == h && eq(r-1) {
			return r - 1
		}
	}
}

// put installs row under (h, eq). If an entry matching eq exists its row
// is replaced and the old row returned; otherwise -1 (growing the table at
// 3/4 load).
func (t *oaTable) put(h uint64, eq func(row int32) bool, row int32) int32 {
	if 4*(t.n+1) > 3*len(t.rows) {
		t.grow()
	}
	mask := uint64(len(t.rows) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		r := t.rows[i]
		if r == 0 {
			t.hashes[i] = h
			t.rows[i] = row + 1
			t.n++
			return -1
		}
		if t.hashes[i] == h && eq(r-1) {
			t.rows[i] = row + 1
			return r - 1
		}
	}
}

func (t *oaTable) grow() {
	size := 16
	if len(t.rows) > 0 {
		size = 2 * len(t.rows)
	}
	oldH, oldR := t.hashes, t.rows
	t.hashes = make([]uint64, size)
	t.rows = make([]int32, size)
	mask := uint64(size - 1)
	for i, r := range oldR {
		if r == 0 {
			continue
		}
		h := oldH[i]
		for j := h & mask; ; j = (j + 1) & mask {
			if t.rows[j] == 0 {
				t.hashes[j] = h
				t.rows[j] = r
				break
			}
		}
	}
}
