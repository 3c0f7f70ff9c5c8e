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

// oaTable is a linear-probing open-addressing table mapping hashes to row
// ids — the index under hashShard (the hash and array-of-hashsets stores,
// gamma.go) and under colStore (columnar.go). A slot is one word: the
// hash's low 32 bits above, row id + 1 below (0 marks an empty slot), so a
// probe reads one array and growth re-slots from the stored bits. Row ids
// are int32, so no table needs more slots than 32 bits address.
// Distinct keys may share the stored bits; find/put take an equality
// callback to disambiguate. The caller provides synchronisation.
type oaTable struct {
	slots []uint64
	n     int
}

// find returns the row stored under (h, eq), or -1.
func (t *oaTable) find(h uint64, eq func(row int32) bool) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if uint32(s>>32) == uint32(h) && eq(int32(uint32(s))-1) {
			return int32(uint32(s)) - 1
		}
	}
}

// put installs row under (h, eq). If an entry matching eq exists its row
// is replaced and the old row returned; otherwise -1 (growing the table at
// 3/4 load).
func (t *oaTable) put(h uint64, eq func(row int32) bool, row int32) int32 {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			t.slots[i] = h<<32 | uint64(row+1)
			t.n++
			return -1
		}
		if uint32(s>>32) == uint32(h) && eq(int32(uint32(s))-1) {
			t.slots[i] = s&^0xffffffff | uint64(row+1)
			return int32(uint32(s)) - 1
		}
	}
}

func (t *oaTable) grow() {
	size := 16
	if len(t.slots) > 0 {
		size = 2 * len(t.slots)
	}
	old := t.slots
	t.slots = make([]uint64, size)
	mask := uint64(size - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		for j := s >> 32 & mask; ; j = (j + 1) & mask {
			if t.slots[j] == 0 {
				t.slots[j] = s
				break
			}
		}
	}
}
