// Package gamma implements the Gamma database — the main store that
// (conceptually) holds every tuple a JStar program has generated (paper §3,
// Fig 3). Gamma contains a separate data structure per table, and store
// choice is layered:
//
//   - Store is the per-table storage contract (Insert/Len/Select/Scan, with
//     the optional BatchStore fast path for the engine's batched puts).
//     Seven implementations ship: the NavigableSet default (a B-tree for
//     sequential and parallel code alike, ordered by all fields so a query
//     on any prefix of the columns traverses only its range), a sharded
//     hash index and the array-of-hashsets of §6.2 (one hash-bucket
//     implementation, hashShard), the dense native arrays of §6.4, the
//     rolling two-iteration array of §6.6, plus a compressed append-only
//     columnar store and an int-specialised open-addressing store. Every
//     hashed store — hash, arrayhash, inthash and columnar (chained on
//     column 0) — indexes through one open-addressing table, oaTable.
//   - StoreFactory builds a Store for a schema — the paper's stage-4
//     data-structure hint, overridden per table through DB.SetStore (the
//     factory-method seam the paper describes overriding manually).
//   - StorePlan names those choices: a serialisable table -> kind-spec map
//     ("hash:2", "columnar", ...) validated by FactoryFor against the
//     schema before any run starts. Plans are what the profile-guided
//     planner emits (core.PlanFromStats), what the compiler derives
//     statically from query patterns, and what the -store-plan/-save-plan
//     flags replay between runs — the §1.5 loop of run statistics driving
//     data-structure selection, made a first-class artifact.
package gamma

import (
	"fmt"
	"sync"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// Query selects tuples of one table: equality on a prefix of the columns
// plus an optional residual predicate (the boolean lambda part of a JStar
// query, e.g. `get Done(v, [distance < d])`).
type Query struct {
	// Prefix holds equality constraints on columns 0..len(Prefix)-1.
	Prefix []tuple.Value
	// Where, if non-nil, filters the remaining candidates.
	Where func(*tuple.Tuple) bool
}

// Matches reports whether t satisfies the query.
func (q Query) Matches(t *tuple.Tuple) bool {
	for i, v := range q.Prefix {
		if !t.Field(i).Equal(v) {
			return false
		}
	}
	return q.whereOK(t)
}

// whereOK applies the residual predicate alone, for stores whose walk has
// already established the prefix.
func (q Query) whereOK(t *tuple.Tuple) bool { return q.Where == nil || q.Where(t) }

// Store is one table's storage in the Gamma database. Insert may be called
// concurrently by parallel rule tasks; Select and Scan may run concurrently
// with Insert (weakly consistent, like the Java concurrent collections).
type Store interface {
	// Insert adds t, returning false if an equal tuple was already stored
	// (set-oriented semantics).
	Insert(t *tuple.Tuple) bool
	// Len returns the number of stored tuples.
	Len() int
	// Select visits the tuples matching q until fn returns false.
	Select(q Query, fn func(*tuple.Tuple) bool)
	// Scan visits every tuple until fn returns false.
	Scan(fn func(*tuple.Tuple) bool)
}

// StoreFactory builds a store for a schema; the per-table compiler hint.
type StoreFactory func(s *tuple.Schema) Store

// --- Hash index stores -----------------------------------------------------

// hashShard is the one hash-bucket implementation behind the hash and
// array-of-hashsets stores: entries in one append-only slice, chained per
// 64-bit hash through next, the chain heads in the open-addressing oaTable
// (inthash.go) — no Go map to probe, no slice allocated per key. Hashes
// arrive avalanched (finalizeHash), since oaTable masks their low bits.
type hashShard struct {
	mu sync.RWMutex
	// ts holds the entries in insertion order. Elements are never rewritten,
	// so a slice header read under mu is a stable snapshot to walk unlocked.
	ts    []*tuple.Tuple
	next  []int32 // per entry: the previous entry with the same hash, -1 ends
	heads oaTable // hash -> newest entry of its chain
}

// anyRow makes oaTable key on the hash alone: entries whose keys collide on
// all 64 bits share a chain, and readers filter with Query.Matches.
func anyRow(int32) bool { return true }

// insert chains t under h unless an Equal tuple is already there.
func (sh *hashShard) insert(h uint64, t *tuple.Tuple) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for r := sh.heads.find(h, anyRow); r >= 0; r = sh.next[r] {
		if sh.ts[r].Equal(t) {
			return false
		}
	}
	r := int32(len(sh.ts))
	sh.ts = append(sh.ts, t)
	sh.next = append(sh.next, sh.heads.put(h, anyRow, r))
	return true
}

// snapshot returns every entry, in insertion order, for walking unlocked.
func (sh *hashShard) snapshot() []*tuple.Tuple {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.ts
}

// chain appends the entries stored under h to buf, newest first — the
// bucket snapshot, taken under the read lock so callbacks run outside it.
func (sh *hashShard) chain(h uint64, buf []*tuple.Tuple) []*tuple.Tuple {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for r := sh.heads.find(h, anyRow); r >= 0; r = sh.next[r] {
		buf = append(buf, sh.ts[r])
	}
	return buf
}

// scanShards visits every entry of shards, shard by shard in insertion
// order — deterministic for a deterministic insert sequence.
func scanShards(shards []hashShard, fn func(*tuple.Tuple) bool) {
	for i := range shards {
		for _, t := range shards[i].snapshot() {
			if !fn(t) {
				return
			}
		}
	}
}

func lenShards(shards []hashShard) int {
	n := 0
	for i := range shards {
		n += len(shards[i].snapshot())
	}
	return n
}

// hashStore indexes tuples by a hash of their first k columns, sharded to
// keep parallel inserts cheap. Queries whose prefix length >= k hit one
// chain; other queries fall back to a full scan (the paper's point about
// choosing structures per observed query shape, §1.4).
type hashStore struct {
	k int
	// hashMask is all ones outside tests; a narrow mask is the test seam
	// that forces distinct keys onto one 64-bit hash.
	hashMask uint64
	shards   [hashShards]hashShard
}

const hashShards = 64

// NewHashStore returns a store hashing on the first k columns of s.
func NewHashStore(k int) StoreFactory {
	return func(s *tuple.Schema) Store {
		if k < 1 || k > s.Arity() {
			panic(fmt.Sprintf("jstar: hash store on %s: k=%d out of range", s.Name, k))
		}
		return &hashStore{k: k, hashMask: ^uint64(0)}
	}
}

func (st *hashStore) StoreKind() string { return fmt.Sprintf("hash:%d", st.k) }

// locate avalanches a key's field hash and picks its shard from the top
// bits; the probe masks inside the shard use the (independent) low bits.
func (st *hashStore) locate(h uint64) (*hashShard, uint64) {
	h = finalizeHash(h) & st.hashMask
	return &st.shards[h>>(64-6)], h
}

func (st *hashStore) Insert(t *tuple.Tuple) bool {
	h := tuple.HashSeed
	for i := 0; i < st.k; i++ {
		h = t.Field(i).Hash(h)
	}
	sh, h := st.locate(h)
	return sh.insert(h, t)
}

func (st *hashStore) Len() int { return lenShards(st.shards[:]) }

func (st *hashStore) Scan(fn func(*tuple.Tuple) bool) { scanShards(st.shards[:], fn) }

func (st *hashStore) Select(q Query, fn func(*tuple.Tuple) bool) {
	if len(q.Prefix) < st.k {
		// Under-specified query: full scan with residual filter.
		st.Scan(func(t *tuple.Tuple) bool { return !q.Matches(t) || fn(t) })
		return
	}
	h := tuple.HashSeed
	for _, v := range q.Prefix[:st.k] {
		h = v.Hash(h)
	}
	sh, h := st.locate(h)
	var buf [16]*tuple.Tuple // longer chains spill to the heap
	bucket := sh.chain(h, buf[:0])
	for i := len(bucket) - 1; i >= 0; i-- { // oldest first: insertion order
		if t := bucket[i]; q.Matches(t) && !fn(t) {
			return
		}
	}
}

// arrayHashStore is the paper's custom PvWatts Gamma structure (§6.2): a
// dense array indexed by one small-range int column, with a hash set inside
// each slot. Queries that fix the indexed column touch exactly one slot.
type arrayHashStore struct {
	col    int
	lo, hi int64
	slots  []hashShard
}

// NewArrayOfHashSets indexes column col (an int with values in [lo, hi]).
func NewArrayOfHashSets(col int, lo, hi int64) StoreFactory {
	return func(s *tuple.Schema) Store {
		if col < 0 || col >= s.Arity() || s.Columns[col].Kind != tuple.KindInt || hi < lo {
			panic(fmt.Sprintf("jstar: array-of-hashsets on %s: bad column %d or range [%d,%d]",
				s.Name, col, lo, hi))
		}
		return &arrayHashStore{col: col, lo: lo, hi: hi, slots: make([]hashShard, hi-lo+1)}
	}
}

func (st *arrayHashStore) StoreKind() string {
	return fmt.Sprintf("arrayhash:%d,%d,%d", st.col, st.lo, st.hi)
}

func (st *arrayHashStore) slot(v int64) *hashShard {
	if v < st.lo || v > st.hi {
		panic(fmt.Sprintf("jstar: array-of-hashsets: value %d outside [%d,%d]", v, st.lo, st.hi))
	}
	return &st.slots[v-st.lo]
}

func (st *arrayHashStore) Insert(t *tuple.Tuple) bool {
	return st.slot(t.Field(st.col).AsInt()).insert(finalizeHash(t.Hash()), t)
}

func (st *arrayHashStore) Len() int { return lenShards(st.slots) }

func (st *arrayHashStore) Scan(fn func(*tuple.Tuple) bool) { scanShards(st.slots, fn) }

func (st *arrayHashStore) Select(q Query, fn func(*tuple.Tuple) bool) {
	if st.col >= len(q.Prefix) {
		st.Scan(func(t *tuple.Tuple) bool { return !q.Matches(t) || fn(t) })
		return
	}
	for _, t := range st.slot(q.Prefix[st.col].AsInt()).snapshot() {
		if q.Matches(t) && !fn(t) {
			return
		}
	}
}

// BatchStore is an optional Store extension: InsertBatch inserts a
// schema-homogeneous run of tuples, appending the inserted (non-duplicate)
// ones to live, under a single synchronisation episode where the backend
// allows it. Callers should pass the run sorted by field values so ordered
// backends insert with locality.
type BatchStore interface {
	InsertBatch(ts []*tuple.Tuple, live []*tuple.Tuple) []*tuple.Tuple
}

// InsertBatch inserts ts into st via its BatchStore fast path when
// available, falling back to per-tuple Insert. Inserted tuples are appended
// to live, which is returned.
func InsertBatch(st Store, ts []*tuple.Tuple, live []*tuple.Tuple) []*tuple.Tuple {
	if bs, ok := st.(BatchStore); ok {
		return bs.InsertBatch(ts, live)
	}
	for _, t := range ts {
		if st.Insert(t) {
			live = append(live, t)
		}
	}
	return live
}

// denseEntry pairs a registered schema with its store for the lock-free
// DB.Table fast path. Both are written once, in Register, and only read
// afterwards.
type denseEntry struct {
	schema *tuple.Schema
	store  Store
}

// DB is the Gamma database: one store per registered table.
//
// Tables registered up front through Register are resolved by the schema's
// dense ID with no locking — the engine's hot path, hit on every query and
// insert. Schemas never registered (ad-hoc tests, tools) fall back to a
// mutex-guarded map. A table's store is fixed once built: hints must be set
// before Register.
type DB struct {
	dense    []denseEntry // immutable after Register
	mu       sync.RWMutex
	stores   map[*tuple.Schema]Store
	override map[string]StoreFactory // per-table compiler hints
}

// NewDB returns a Gamma database. Every table gets the ordered tree store
// unless SetStore names another.
func NewDB() *DB {
	return &DB{
		stores:   make(map[*tuple.Schema]Store),
		override: make(map[string]StoreFactory),
	}
}

// build makes s's store: its SetStore hint, else the tree.
func (db *DB) build(s *tuple.Schema) Store {
	if f, ok := db.override[s.Name]; ok {
		return f(s)
	}
	return NewTreeStore(s)
}

// SetStore installs a per-table store factory (a data-structure hint,
// paper stage 4), applied when Register (or the map path's first use)
// builds the table's store. A table whose store is already built keeps it:
// SetStore then returns an error instead of silently dropping the hint.
func (db *DB) SetStore(table string, f StoreFactory) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	built := false
	for i := range db.dense {
		built = built || db.dense[i].schema != nil && db.dense[i].schema.Name == table
	}
	for s := range db.stores {
		built = built || s.Name == table
	}
	if built {
		return fmt.Errorf("jstar: SetStore %s: store already built; set hints before Register", table)
	}
	db.override[table] = f
	return nil
}

// Register builds the dense store table for schemas, indexed by their IDs
// (assigned densely at Program declaration time). It must be called before
// execution starts — once registered, Table lookups for these schemas are a
// bounds check, a pointer compare and a slice read, with no lock. Stores
// are created eagerly, honouring any SetStore hints.
func (db *DB) Register(schemas []*tuple.Schema) {
	db.mu.Lock()
	defer db.mu.Unlock()
	max := -1
	for _, s := range schemas {
		if id := int(s.ID()); id > max {
			max = id
		}
	}
	db.dense = make([]denseEntry, max+1)
	for _, s := range schemas {
		db.dense[s.ID()] = denseEntry{schema: s, store: db.build(s)}
	}
}

// Table returns (creating on first use) the store for s.
func (db *DB) Table(s *tuple.Schema) Store {
	if id := int(s.ID()); id < len(db.dense) && db.dense[id].schema == s {
		return db.dense[id].store
	}
	db.mu.RLock()
	st, ok := db.stores[s]
	db.mu.RUnlock()
	if ok {
		return st
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if st, ok = db.stores[s]; ok {
		return st
	}
	st = db.build(s)
	db.stores[s] = st
	return st
}

// Insert adds t to its table's store.
func (db *DB) Insert(t *tuple.Tuple) bool { return db.Table(t.Schema()).Insert(t) }

// Len returns the total number of stored tuples across tables.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for i := range db.dense {
		if st := db.dense[i].store; st != nil {
			n += st.Len()
		}
	}
	for _, st := range db.stores {
		n += st.Len()
	}
	return n
}
