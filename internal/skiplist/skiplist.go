// Package skiplist implements a concurrent ordered set — the Go analogue of
// Java's ConcurrentSkipListSet that JStar's parallel code generator uses for
// Gamma tables (paper §5).
//
// The implementation follows the lazy optimistic skip list of Herlihy, Lev,
// Luchangco and Shavit ("A Simple Optimistic Skiplist Algorithm"): wait-free
// containment checks, and insert/delete that lock only the predecessor nodes
// of the affected element. Reads (Contains, Ascend, Min) never block.
package skiplist

import (
	"runtime"
	"sync"
	"sync/atomic"
)

const maxLevel = 32

type node[T any] struct {
	elem        T
	next        []atomic.Pointer[node[T]]
	mu          sync.Mutex
	marked      atomic.Bool
	fullyLinked atomic.Bool
	topLayer    int
	sentinel    bool
}

func newNode[T any](elem T, topLayer int, sentinel bool) *node[T] {
	return &node[T]{
		elem:     elem,
		next:     make([]atomic.Pointer[node[T]], topLayer+1),
		topLayer: topLayer,
		sentinel: sentinel,
	}
}

// List is a concurrent sorted set of T ordered by a comparator.
type List[T any] struct {
	head, tail *node[T]
	cmp        func(a, b T) int
	size       atomic.Int64
	rngState   atomic.Uint64
}

// New returns an empty concurrent set ordered by cmp.
func New[T any](cmp func(a, b T) int) *List[T] {
	var zero T
	l := &List[T]{cmp: cmp}
	l.head = newNode(zero, maxLevel-1, true)
	l.tail = newNode(zero, maxLevel-1, true)
	for i := 0; i < maxLevel; i++ {
		l.head.next[i].Store(l.tail)
	}
	l.head.fullyLinked.Store(true)
	l.tail.fullyLinked.Store(true)
	l.rngState.Store(0x9e3779b97f4a7c15)
	return l
}

// Len returns the current element count (approximate under concurrency).
func (l *List[T]) Len() int { return int(l.size.Load()) }

// randomLevel draws a geometric(1/2) level using a shared splitmix64 state.
// Contention on the counter is negligible next to node allocation.
func (l *List[T]) randomLevel() int {
	z := l.rngState.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	lvl := 0
	for z&1 == 1 && lvl < maxLevel-1 {
		lvl++
		z >>= 1
	}
	return lvl
}

// find locates probe, filling preds/succs per layer; returns the highest
// layer at which an equal element was found, or -1.
func (l *List[T]) find(probe T, preds, succs *[maxLevel]*node[T]) int {
	lFound := -1
	pred := l.head
	for layer := maxLevel - 1; layer >= 0; layer-- {
		curr := pred.next[layer].Load()
		for curr != l.tail && l.cmp(curr.elem, probe) < 0 {
			pred = curr
			curr = pred.next[layer].Load()
		}
		if lFound == -1 && curr != l.tail && l.cmp(curr.elem, probe) == 0 {
			lFound = layer
		}
		preds[layer] = pred
		succs[layer] = curr
	}
	return lFound
}

func unlockPreds[T any](preds *[maxLevel]*node[T], highestLocked int) {
	var prev *node[T]
	for layer := 0; layer <= highestLocked; layer++ {
		if preds[layer] != prev {
			preds[layer].mu.Unlock()
			prev = preds[layer]
		}
	}
}

// Insert adds elem if no equal element is present; reports whether added.
func (l *List[T]) Insert(elem T) bool {
	_, added := l.GetOrInsert(elem)
	return added
}

// GetOrInsert adds elem if absent. It returns the element now in the set
// (the existing one if already present) and whether an insert happened.
func (l *List[T]) GetOrInsert(elem T) (T, bool) {
	return l.insert(elem, nil)
}

// Finger remembers where the last InsertAfter landed — per layer, the last
// node known to sort before it — so that a run of ascending inserts resumes
// each search there instead of descending from the head: O(log d) for an
// element d positions past the previous one, O(1) when appending. The zero
// Finger is ready to use; a Finger belongs to one goroutine and one List.
type Finger[T any] struct {
	at [maxLevel]*node[T]
	ok bool
}

// InsertAfter is Insert resuming from f. Any elem is accepted: one that
// does not sort strictly after f's position takes the ordinary descent from
// the head, as does a retry after a failed validation, and either way f is
// left at elem for the next call. Concurrent inserters and readers are as
// safe as with Insert — same lock, validate and publish protocol.
func (l *List[T]) InsertAfter(f *Finger[T], elem T) bool {
	_, added := l.insert(elem, f)
	return added
}

// findAfter is find started from finger f (every f.at node sorts before
// probe): it climbs from the bottom layer to the first layer whose finger
// has no successor before probe, walks down again from there, and resolves
// the layers above — up to top, the new node's height — from their own
// fingers. It fills preds/succs on layers 0..filled only; the layers above
// keep their fingers, which still precede probe. Like find it returns a
// layer at which succs holds an element equal to probe (the bottom one), or
// -1.
func (l *List[T]) findAfter(f *Finger[T], probe T, top int, preds, succs *[maxLevel]*node[T]) (lFound, filled int) {
	climb := 0
	for climb < maxLevel-1 {
		next := f.at[climb].next[climb].Load()
		if next == l.tail || l.cmp(next.elem, probe) >= 0 {
			break
		}
		climb++
	}
	filled = max(climb, top)
	pred := f.at[filled]
	for layer := filled; layer >= 0; layer-- {
		// At and above the climb each layer starts from its own finger; on
		// the way down a layer does too until the walk has moved (the first
		// step forward lands beyond every lower finger).
		if layer >= climb || pred == f.at[layer+1] {
			pred = f.at[layer]
		}
		curr := pred.next[layer].Load()
		for curr != l.tail && l.cmp(curr.elem, probe) < 0 {
			pred = curr
			curr = pred.next[layer].Load()
		}
		preds[layer], succs[layer] = pred, curr
	}
	if c := succs[0]; c == l.tail || l.cmp(c.elem, probe) != 0 {
		return -1, filled
	}
	return 0, filled
}

// insert is the lazy-skiplist insert behind GetOrInsert and InsertAfter:
// search (from f when it is usable), lock the predecessors bottom-up,
// validate that they still point at the successors found, link, publish.
func (l *List[T]) insert(elem T, f *Finger[T]) (T, bool) {
	topLayer := l.randomLevel()
	var preds, succs [maxLevel]*node[T]
	resume := f != nil && f.ok && (f.at[0] == l.head || l.cmp(f.at[0].elem, elem) < 0)
	for {
		var lFound, filled int // filled: highest layer of preds the search set
		if resume {
			lFound, filled = l.findAfter(f, elem, topLayer, &preds, &succs)
		} else {
			lFound, filled = l.find(elem, &preds, &succs), maxLevel-1
		}
		resume = false // a retry searches from the head
		if lFound != -1 {
			found := succs[lFound]
			if !found.marked.Load() {
				for !found.fullyLinked.Load() {
					runtime.Gosched()
				}
				f.moveTo(&preds, filled, nil, -1)
				return found.elem, false
			}
			// Found but being deleted: retry until unlinked.
			runtime.Gosched()
			continue
		}
		highestLocked := -1
		var prevPred *node[T]
		valid := true
		for layer := 0; valid && layer <= topLayer; layer++ {
			pred, succ := preds[layer], succs[layer]
			if pred != prevPred {
				pred.mu.Lock()
				highestLocked = layer
				prevPred = pred
			}
			valid = !pred.marked.Load() && !succ.marked.Load() && pred.next[layer].Load() == succ
		}
		if !valid {
			unlockPreds(&preds, highestLocked)
			continue
		}
		n := newNode(elem, topLayer, false)
		for layer := 0; layer <= topLayer; layer++ {
			n.next[layer].Store(succs[layer])
		}
		for layer := 0; layer <= topLayer; layer++ {
			preds[layer].next[layer].Store(n)
		}
		n.fullyLinked.Store(true)
		unlockPreds(&preds, highestLocked)
		l.size.Add(1)
		f.moveTo(&preds, filled, n, topLayer)
		return elem, true
	}
}

// moveTo advances the finger past an insert: n (when one was linked) on
// the layers it occupies, the search's predecessors on the other layers the
// search filled. A nil finger ignores the call.
func (f *Finger[T]) moveTo(preds *[maxLevel]*node[T], filled int, n *node[T], topLayer int) {
	if f == nil {
		return
	}
	for layer := 0; layer <= filled; layer++ {
		if layer <= topLayer {
			f.at[layer] = n
		} else {
			f.at[layer] = preds[layer]
		}
	}
	f.ok = true
}

// Contains reports whether an element equal to probe is present. Wait-free.
func (l *List[T]) Contains(probe T) bool {
	_, ok := l.GetEqual(probe)
	return ok
}

// GetEqual returns the stored element equal to probe, if present. Wait-free.
func (l *List[T]) GetEqual(probe T) (T, bool) {
	pred := l.head
	for layer := maxLevel - 1; layer >= 0; layer-- {
		curr := pred.next[layer].Load()
		for curr != l.tail && l.cmp(curr.elem, probe) < 0 {
			pred = curr
			curr = pred.next[layer].Load()
		}
		if curr != l.tail && l.cmp(curr.elem, probe) == 0 {
			if curr.fullyLinked.Load() && !curr.marked.Load() {
				return curr.elem, true
			}
			var zero T
			return zero, false
		}
	}
	var zero T
	return zero, false
}

// Delete removes the element equal to probe; reports whether removed.
func (l *List[T]) Delete(probe T) bool {
	var victim *node[T]
	isMarked := false
	topLayer := -1
	var preds, succs [maxLevel]*node[T]
	for {
		lFound := l.find(probe, &preds, &succs)
		if lFound != -1 {
			victim = succs[lFound]
		}
		if !isMarked {
			if lFound == -1 || !victim.fullyLinked.Load() ||
				victim.topLayer != lFound || victim.marked.Load() {
				return false
			}
			topLayer = victim.topLayer
			victim.mu.Lock()
			if victim.marked.Load() {
				victim.mu.Unlock()
				return false
			}
			victim.marked.Store(true)
			isMarked = true
		}
		highestLocked := -1
		var prevPred *node[T]
		valid := true
		for layer := 0; valid && layer <= topLayer; layer++ {
			pred := preds[layer]
			if pred != prevPred {
				pred.mu.Lock()
				highestLocked = layer
				prevPred = pred
			}
			valid = !pred.marked.Load() && pred.next[layer].Load() == victim
		}
		if !valid {
			unlockPreds(&preds, highestLocked)
			continue
		}
		for layer := topLayer; layer >= 0; layer-- {
			preds[layer].next[layer].Store(victim.next[layer].Load())
		}
		victim.mu.Unlock()
		unlockPreds(&preds, highestLocked)
		l.size.Add(-1)
		return true
	}
}

// Min returns the smallest element. Wait-free; under concurrent inserts the
// result is a linearisable snapshot of some smallest element.
func (l *List[T]) Min() (T, bool) {
	for curr := l.head.next[0].Load(); curr != l.tail; curr = curr.next[0].Load() {
		if curr.fullyLinked.Load() && !curr.marked.Load() {
			return curr.elem, true
		}
	}
	var zero T
	return zero, false
}

// DeleteMin removes and returns the smallest element.
func (l *List[T]) DeleteMin() (T, bool) {
	for {
		min, ok := l.Min()
		if !ok {
			var zero T
			return zero, false
		}
		if l.Delete(min) {
			return min, true
		}
		// Someone else deleted it first; retry.
	}
}

// Ascend calls fn in ascending order until it returns false. The traversal
// is weakly consistent (like Java's concurrent collections): elements
// inserted behind the cursor during traversal are not revisited.
func (l *List[T]) Ascend(fn func(T) bool) {
	for curr := l.head.next[0].Load(); curr != l.tail; curr = curr.next[0].Load() {
		if !curr.fullyLinked.Load() || curr.marked.Load() {
			continue
		}
		if !fn(curr.elem) {
			return
		}
	}
}

// AscendFrom calls fn on elements >= lo in ascending order until fn returns
// false.
func (l *List[T]) AscendFrom(lo T, fn func(T) bool) {
	pred := l.head
	for layer := maxLevel - 1; layer >= 0; layer-- {
		curr := pred.next[layer].Load()
		for curr != l.tail && l.cmp(curr.elem, lo) < 0 {
			pred = curr
			curr = pred.next[layer].Load()
		}
	}
	for curr := pred.next[0].Load(); curr != l.tail; curr = curr.next[0].Load() {
		if !curr.fullyLinked.Load() || curr.marked.Load() {
			continue
		}
		if l.cmp(curr.elem, lo) < 0 {
			continue
		}
		if !fn(curr.elem) {
			return
		}
	}
}

// AscendRange calls fn, in ascending order, on the elements e with
// pos(e) == 0 until fn returns false. pos must be monotone along the list's
// order: negative before the range, zero inside it, positive after — so the
// range is located without a probe element. Weakly consistent like Ascend.
func (l *List[T]) AscendRange(pos func(T) int, fn func(T) bool) {
	pred := l.head
	for layer := maxLevel - 1; layer >= 0; layer-- {
		curr := pred.next[layer].Load()
		for curr != l.tail && pos(curr.elem) < 0 {
			pred = curr
			curr = pred.next[layer].Load()
		}
	}
	for curr := pred.next[0].Load(); curr != l.tail; curr = curr.next[0].Load() {
		if !curr.fullyLinked.Load() || curr.marked.Load() {
			continue
		}
		c := pos(curr.elem)
		if c > 0 {
			return
		}
		if c == 0 && !fn(curr.elem) {
			return
		}
	}
}

// Clear removes all elements. Not atomic with respect to concurrent writers;
// callers quiesce first (the engine clears only between runs).
func (l *List[T]) Clear() {
	for i := 0; i < maxLevel; i++ {
		l.head.next[i].Store(l.tail)
	}
	l.size.Store(0)
}
