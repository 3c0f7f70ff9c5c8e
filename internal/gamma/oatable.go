package gamma

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

// oaTable is a linear-probing open-addressing table mapping 64-bit hashes
// to row ids — the index under hashShard (the hash and array-of-hashsets
// stores, gamma.go) and under colStore (columnar.go).
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
