package skiplist

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func intList() *List[int] {
	return New(func(a, b int) int { return a - b })
}

func TestInsertContainsSequential(t *testing.T) {
	l := intList()
	for _, v := range []int{5, 3, 8, 1} {
		if !l.Insert(v) {
			t.Errorf("Insert(%d) on fresh value", v)
		}
	}
	if l.Insert(5) {
		t.Error("duplicate insert must fail")
	}
	if l.Len() != 4 {
		t.Errorf("Len = %d", l.Len())
	}
	for _, v := range []int{1, 3, 5, 8} {
		if !l.Contains(v) {
			t.Errorf("Contains(%d)", v)
		}
	}
	if l.Contains(2) {
		t.Error("Contains(2)")
	}
}

func TestMinDeleteMin(t *testing.T) {
	l := intList()
	if _, ok := l.Min(); ok {
		t.Error("Min on empty")
	}
	if _, ok := l.DeleteMin(); ok {
		t.Error("DeleteMin on empty")
	}
	for _, v := range []int{5, 3, 8} {
		l.Insert(v)
	}
	if m, _ := l.Min(); m != 3 {
		t.Errorf("Min = %d", m)
	}
	got := make([]int, 0, 3)
	for {
		m, ok := l.DeleteMin()
		if !ok {
			break
		}
		got = append(got, m)
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 5 || got[2] != 8 {
		t.Errorf("drain order = %v", got)
	}
}

func TestDelete(t *testing.T) {
	l := intList()
	for i := 0; i < 50; i++ {
		l.Insert(i)
	}
	if l.Delete(100) {
		t.Error("delete absent")
	}
	for i := 0; i < 50; i += 2 {
		if !l.Delete(i) {
			t.Errorf("Delete(%d)", i)
		}
	}
	if l.Len() != 25 {
		t.Errorf("Len = %d", l.Len())
	}
	for i := 0; i < 50; i++ {
		if l.Contains(i) != (i%2 == 1) {
			t.Errorf("Contains(%d) wrong after deletes", i)
		}
	}
}

func TestAscendSorted(t *testing.T) {
	l := intList()
	perm := rand.New(rand.NewSource(7)).Perm(2000)
	for _, v := range perm {
		l.Insert(v)
	}
	var got []int
	l.Ascend(func(v int) bool { got = append(got, v); return true })
	if len(got) != 2000 || !sort.IntsAreSorted(got) {
		t.Error("Ascend must be sorted and complete")
	}
}

func TestAscendFrom(t *testing.T) {
	l := intList()
	for i := 0; i < 100; i += 10 {
		l.Insert(i)
	}
	var got []int
	l.AscendFrom(35, func(v int) bool { got = append(got, v); return true })
	if len(got) != 6 || got[0] != 40 {
		t.Errorf("AscendFrom(35) = %v", got)
	}
	got = got[:0]
	l.AscendFrom(40, func(v int) bool { got = append(got, v); return true })
	if len(got) != 6 || got[0] != 40 {
		t.Errorf("AscendFrom(40) = %v (must be inclusive)", got)
	}
}

func TestGetOrInsertReturnsExisting(t *testing.T) {
	type box struct {
		k int
		p *int
	}
	l := New(func(a, b box) int { return a.k - b.k })
	x, y := 1, 2
	first, added := l.GetOrInsert(box{1, &x})
	if !added || first.p != &x {
		t.Error("first GetOrInsert should insert")
	}
	second, added := l.GetOrInsert(box{1, &y})
	if added || second.p != &x {
		t.Error("second GetOrInsert must return the stored element")
	}
}

func TestClear(t *testing.T) {
	l := intList()
	for i := 0; i < 10; i++ {
		l.Insert(i)
	}
	l.Clear()
	if l.Len() != 0 || l.Contains(3) {
		t.Error("Clear")
	}
}

func TestConcurrentInserts(t *testing.T) {
	l := intList()
	const workers = 8
	const per = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Insert(w*per + i)
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != workers*per {
		t.Fatalf("Len = %d, want %d", l.Len(), workers*per)
	}
	var got []int
	l.Ascend(func(v int) bool { got = append(got, v); return true })
	if len(got) != workers*per || !sort.IntsAreSorted(got) {
		t.Error("traversal after concurrent inserts must be sorted and complete")
	}
}

func TestConcurrentDuplicateInserts(t *testing.T) {
	// All workers insert the same keys; exactly one insert per key must win.
	l := intList()
	const workers = 8
	const keys = 1000
	wins := make([][]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wins[w] = make([]bool, keys)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				wins[w][i] = l.Insert(i)
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != keys {
		t.Fatalf("Len = %d, want %d", l.Len(), keys)
	}
	for i := 0; i < keys; i++ {
		n := 0
		for w := 0; w < workers; w++ {
			if wins[w][i] {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("key %d won %d times, want exactly 1", i, n)
		}
	}
}

func TestConcurrentInsertDelete(t *testing.T) {
	l := intList()
	for i := 0; i < 10000; i += 2 {
		l.Insert(i)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // inserter: odd keys
		defer wg.Done()
		for i := 1; i < 10000; i += 2 {
			l.Insert(i)
		}
	}()
	go func() { // deleter: even keys
		defer wg.Done()
		for i := 0; i < 10000; i += 2 {
			l.Delete(i)
		}
	}()
	wg.Wait()
	if l.Len() != 5000 {
		t.Fatalf("Len = %d, want 5000", l.Len())
	}
	for i := 0; i < 10000; i++ {
		if l.Contains(i) != (i%2 == 1) {
			t.Fatalf("Contains(%d) wrong", i)
		}
	}
}

func TestConcurrentDeleteMinDrain(t *testing.T) {
	// Concurrent DeleteMin consumers must partition the elements.
	l := intList()
	const n = 8000
	for i := 0; i < n; i++ {
		l.Insert(i)
	}
	const workers = 8
	results := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				v, ok := l.DeleteMin()
				if !ok {
					return
				}
				results[w] = append(results[w], v)
			}
		}(w)
	}
	wg.Wait()
	seen := make([]bool, n)
	total := 0
	for _, rs := range results {
		for _, v := range rs {
			if seen[v] {
				t.Fatalf("value %d extracted twice", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != n {
		t.Fatalf("extracted %d values, want %d", total, n)
	}
}

func TestSequentialMatchesReference(t *testing.T) {
	l := intList()
	ref := make(map[int]bool)
	r := rand.New(rand.NewSource(99))
	for op := 0; op < 20000; op++ {
		v := r.Intn(200)
		switch r.Intn(3) {
		case 0:
			if l.Insert(v) == ref[v] {
				t.Fatalf("Insert(%d) disagreed", v)
			}
			ref[v] = true
		case 1:
			if l.Delete(v) != ref[v] {
				t.Fatalf("Delete(%d) disagreed", v)
			}
			delete(ref, v)
		default:
			if l.Contains(v) != ref[v] {
				t.Fatalf("Contains(%d) disagreed", v)
			}
		}
	}
}

func TestQuickAscendIsSortedUnique(t *testing.T) {
	f := func(xs []int16) bool {
		l := intList()
		uniq := make(map[int]bool)
		for _, x := range xs {
			l.Insert(int(x))
			uniq[int(x)] = true
		}
		var got []int
		l.Ascend(func(v int) bool { got = append(got, v); return true })
		return len(got) == len(uniq) && sort.IntsAreSorted(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkSkipListInsert(b *testing.B) {
	l := intList()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			l.Insert(i * 2654435761 % (1 << 30))
			i++
		}
	})
}

func BenchmarkSkipListContains(b *testing.B) {
	l := intList()
	for i := 0; i < 1<<16; i++ {
		l.Insert(i)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			l.Contains(i & (1<<16 - 1))
			i++
		}
	})
}

// checkLayers asserts the structural invariant finger inserts must keep:
// every layer is strictly ascending and is a sublist of the layer below.
func checkLayers(t *testing.T, l *List[int]) {
	t.Helper()
	below := map[*node[int]]bool{}
	for layer := 0; layer < maxLevel; layer++ {
		here := map[*node[int]]bool{}
		var prev *node[int]
		for n := l.head.next[layer].Load(); n != l.tail; n = n.next[layer].Load() {
			if prev != nil && prev.elem >= n.elem {
				t.Fatalf("layer %d: %d before %d", layer, prev.elem, n.elem)
			}
			if layer > 0 && !below[n] {
				t.Fatalf("layer %d holds %d, layer %d does not", layer, n.elem, layer-1)
			}
			if n.topLayer < layer {
				t.Fatalf("node %d of height %d linked at layer %d", n.elem, n.topLayer, layer)
			}
			here[n], prev = true, n
		}
		below = here
	}
}

// TestInsertAfterMatchesInsert: whatever the input order — ascending runs
// with small and large gaps, repeats, descents, runs restarted below the
// finger — InsertAfter through one finger answers exactly as Insert into a
// reference list does and builds the same set.
func TestInsertAfterMatchesInsert(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		l, ref := intList(), intList()
		var f Finger[int]
		v := 0
		for i := 0; i < 3000; i++ {
			switch r.Intn(20) {
			case 0:
				v = r.Intn(4000) // jump anywhere, usually backwards
			case 1:
				// repeat v
			case 2:
				v += 200 + r.Intn(400) // a gap the climb has to span
			default:
				v += 1 + r.Intn(3)
			}
			if seed%3 == 0 && r.Intn(50) == 0 {
				f = Finger[int]{} // a new run starts with a fresh finger
			}
			if got, want := l.InsertAfter(&f, v), ref.Insert(v); got != want {
				t.Fatalf("seed %d op %d: InsertAfter(%d) = %v, Insert = %v", seed, i, v, got, want)
			}
		}
		var got, want []int
		l.Ascend(func(x int) bool { got = append(got, x); return true })
		ref.Ascend(func(x int) bool { want = append(want, x); return true })
		if len(got) != len(want) || l.Len() != ref.Len() {
			t.Fatalf("seed %d: %d elements (Len %d), reference %d", seed, len(got), l.Len(), ref.Len())
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: element %d is %d, reference %d", seed, i, got[i], want[i])
			}
		}
		checkLayers(t, l)
	}
}

// TestInsertAfterConcurrent: several goroutines push interleaving ascending
// runs through their own fingers while one inserts per element and one
// reads. Every element must land exactly once (each value is offered by two
// writers; exactly one may win) and the layers must stay ordered.
func TestInsertAfterConcurrent(t *testing.T) {
	const writers, per = 4, 4000
	l := intList()
	var wg sync.WaitGroup
	wins := make([]int, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var f Finger[int]
			// Writer w offers w, w+writers/2, ... so each value has two
			// takers, arriving through fingers that leapfrog each other.
			for i := 0; i < per; i++ {
				if l.InsertAfter(&f, (w%(writers/2))+i*(writers/2)) {
					wins[w]++
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // plain inserter racing the fingers over the same values
		defer wg.Done()
		r := rand.New(rand.NewSource(3))
		for i := 0; i < per; i++ {
			if l.Insert(r.Intn(per * writers / 2)) {
				wins[writers]++
			}
		}
	}()
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			prev := -1
			l.AscendFrom(per/2, func(x int) bool {
				if x <= prev {
					t.Errorf("reader saw %d after %d", x, prev)
					return false
				}
				prev = x
				return true
			})
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	total := 0
	for _, n := range wins {
		total += n
	}
	if want := per * writers / 2; total != want || l.Len() != want {
		t.Fatalf("%d successful inserts, Len %d, want %d distinct values", total, l.Len(), want)
	}
	checkLayers(t, l)
}

// TestInsertAfterSurvivesDelete: deleting the nodes a finger points at must
// only cost it a retry from the head — validation refuses a marked
// predecessor — never a lost or misplaced insert.
func TestInsertAfterSurvivesDelete(t *testing.T) {
	l := intList()
	var f Finger[int]
	for v := 0; v < 400; v += 2 {
		l.InsertAfter(&f, v)
	}
	for v := 300; v < 400; v += 2 {
		if !l.Delete(v) { // the finger's own node and its neighbours
			t.Fatalf("Delete(%d)", v)
		}
	}
	for v := 399; v < 500; v += 3 {
		if !l.InsertAfter(&f, v) {
			t.Fatalf("InsertAfter(%d) after deletes", v)
		}
	}
	want := 150 + 34
	if l.Len() != want {
		t.Fatalf("Len = %d, want %d", l.Len(), want)
	}
	for _, v := range []int{298, 399, 402, 498} {
		if !l.Contains(v) {
			t.Fatalf("Contains(%d)", v)
		}
	}
	if l.Contains(300) || l.Contains(398) {
		t.Fatal("deleted elements resurfaced")
	}
	checkLayers(t, l)
}
