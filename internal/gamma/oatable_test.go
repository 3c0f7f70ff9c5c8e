package gamma

import "testing"

// TestOATableStoredBitsCollide: a slot keeps only the hash's low 32 bits,
// so hashes that agree there share a probe run however they differ above.
// Under an eq callback that tells their keys apart, 60 such entries (two
// groups of low bits, the table growing from 16 slots through three
// doublings to 128) stay distinct: each is found, replaced and re-found
// under its own key, and an absent key with the same low bits is not
// found.
func TestOATableStoredBitsCollide(t *testing.T) {
	const n = 60
	var tab oaTable
	keys := make([]uint64, 0, 2*n) // row id -> the full hash it was put under
	hash := func(i int) uint64 { return uint64(i+1)<<32 | uint64(0xabc+i%2) }
	eq := func(h uint64) func(int32) bool { return func(r int32) bool { return keys[r] == h } }
	for i := 0; i < n; i++ {
		h := hash(i)
		if old := tab.put(h, eq(h), int32(len(keys))); old != -1 {
			t.Fatalf("put %d: replaced row %d, want a new entry", i, old)
		}
		keys = append(keys, h)
	}
	if len(tab.slots) != 128 || tab.n != n {
		t.Fatalf("%d entries in %d slots, want %d in 128", tab.n, len(tab.slots), n)
	}
	for i := 0; i < n; i++ {
		h := hash(i)
		if r := tab.find(h, eq(h)); r != int32(i) {
			t.Fatalf("find %d = %d", i, r)
		}
		if old := tab.put(h, eq(h), int32(len(keys))); old != int32(i) {
			t.Fatalf("re-put %d replaced %d", i, old)
		}
		keys = append(keys, h)
		if r := tab.find(h, eq(h)); r != int32(n+i) {
			t.Fatalf("find %d after re-put = %d, want %d", i, r, n+i)
		}
	}
	if h := hash(n + 1); tab.find(h, eq(h)) != -1 {
		t.Fatalf("an absent key sharing the low bits was found")
	}
	if tab.n != n {
		t.Fatalf("%d entries after re-puts, want %d", tab.n, n)
	}
}
