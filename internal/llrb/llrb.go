// Package llrb implements a left-leaning red-black tree, the sequential
// ordered-container substrate of JStar (the analogue of Java's TreeMap /
// TreeSet used by the -sequential code generator, paper §5).
//
// The tree is generic over the element type with an explicit comparator, and
// supports the NavigableSet operations the Gamma database and Delta tree
// need: insert-if-absent, contains, min, delete-min, delete, ceiling, and
// in-order ascending iteration (optionally from a lower bound).
package llrb

const (
	red   = true
	black = false
)

type node[T any] struct {
	elem        T
	left, right *node[T]
	color       bool
}

// Tree is a left-leaning red-black BST. Not safe for concurrent use; the
// engine uses it only from the coordinator or within sequential programs.
type Tree[T any] struct {
	root *node[T]
	cmp  func(a, b T) int
	size int
}

// New returns an empty tree ordered by cmp.
func New[T any](cmp func(a, b T) int) *Tree[T] {
	return &Tree[T]{cmp: cmp}
}

// Len returns the number of elements.
func (t *Tree[T]) Len() int { return t.size }

func isRed[T any](n *node[T]) bool { return n != nil && n.color == red }

func rotateLeft[T any](h *node[T]) *node[T] {
	x := h.right
	h.right = x.left
	x.left = h
	x.color = h.color
	h.color = red
	return x
}

func rotateRight[T any](h *node[T]) *node[T] {
	x := h.left
	h.left = x.right
	x.right = h
	x.color = h.color
	h.color = red
	return x
}

func colorFlip[T any](h *node[T]) {
	h.color = !h.color
	if h.left != nil {
		h.left.color = !h.left.color
	}
	if h.right != nil {
		h.right.color = !h.right.color
	}
}

func fixUp[T any](h *node[T]) *node[T] {
	if isRed(h.right) && !isRed(h.left) {
		h = rotateLeft(h)
	}
	if isRed(h.left) && isRed(h.left.left) {
		h = rotateRight(h)
	}
	if isRed(h.left) && isRed(h.right) {
		colorFlip(h)
	}
	return h
}

// Insert adds elem if no equal element exists; it reports whether the tree
// changed. Equal elements (cmp == 0) are not replaced, matching Java's
// TreeSet.add semantics that JStar's set-oriented tables rely on.
func (t *Tree[T]) Insert(elem T) bool {
	var added bool
	t.root, added = t.insert(t.root, elem)
	t.root.color = black
	if added {
		t.size++
	}
	return added
}

func (t *Tree[T]) insert(h *node[T], elem T) (*node[T], bool) {
	if h == nil {
		return &node[T]{elem: elem, color: red}, true
	}
	var added bool
	switch c := t.cmp(elem, h.elem); {
	case c < 0:
		h.left, added = t.insert(h.left, elem)
	case c > 0:
		h.right, added = t.insert(h.right, elem)
	default:
		return h, false
	}
	return fixUp(h), added
}

// GetEqual returns the stored element equal to probe, if any.
func (t *Tree[T]) GetEqual(probe T) (T, bool) {
	n := t.root
	for n != nil {
		switch c := t.cmp(probe, n.elem); {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
		default:
			return n.elem, true
		}
	}
	var zero T
	return zero, false
}

// Contains reports whether an element equal to probe is present.
func (t *Tree[T]) Contains(probe T) bool {
	_, ok := t.GetEqual(probe)
	return ok
}

// Min returns the smallest element.
func (t *Tree[T]) Min() (T, bool) {
	if t.root == nil {
		var zero T
		return zero, false
	}
	n := t.root
	for n.left != nil {
		n = n.left
	}
	return n.elem, true
}

// Max returns the largest element.
func (t *Tree[T]) Max() (T, bool) {
	if t.root == nil {
		var zero T
		return zero, false
	}
	n := t.root
	for n.right != nil {
		n = n.right
	}
	return n.elem, true
}

// Ceiling returns the smallest element >= probe.
func (t *Tree[T]) Ceiling(probe T) (T, bool) {
	var best *node[T]
	n := t.root
	for n != nil {
		if t.cmp(probe, n.elem) <= 0 {
			best = n
			n = n.left
		} else {
			n = n.right
		}
	}
	if best == nil {
		var zero T
		return zero, false
	}
	return best.elem, true
}

func moveRedLeft[T any](h *node[T]) *node[T] {
	colorFlip(h)
	if h.right != nil && isRed(h.right.left) {
		h.right = rotateRight(h.right)
		h = rotateLeft(h)
		colorFlip(h)
	}
	return h
}

func moveRedRight[T any](h *node[T]) *node[T] {
	colorFlip(h)
	if h.left != nil && isRed(h.left.left) {
		h = rotateRight(h)
		colorFlip(h)
	}
	return h
}

func deleteMin[T any](h *node[T]) *node[T] {
	if h.left == nil {
		return nil
	}
	if !isRed(h.left) && !isRed(h.left.left) {
		h = moveRedLeft(h)
	}
	h.left = deleteMin(h.left)
	return fixUp(h)
}

// DeleteMin removes and returns the smallest element.
func (t *Tree[T]) DeleteMin() (T, bool) {
	min, ok := t.Min()
	if !ok {
		return min, false
	}
	t.root = deleteMin(t.root)
	if t.root != nil {
		t.root.color = black
	}
	t.size--
	return min, true
}

// Delete removes the element equal to probe; it reports whether an element
// was removed.
func (t *Tree[T]) Delete(probe T) bool {
	if !t.Contains(probe) {
		return false
	}
	t.root = t.delete(t.root, probe)
	if t.root != nil {
		t.root.color = black
	}
	t.size--
	return true
}

func (t *Tree[T]) delete(h *node[T], probe T) *node[T] {
	if t.cmp(probe, h.elem) < 0 {
		if !isRed(h.left) && !isRed(h.left.left) {
			h = moveRedLeft(h)
		}
		h.left = t.delete(h.left, probe)
	} else {
		if isRed(h.left) {
			h = rotateRight(h)
		}
		if t.cmp(probe, h.elem) == 0 && h.right == nil {
			return nil
		}
		if !isRed(h.right) && !isRed(h.right.left) {
			h = moveRedRight(h)
		}
		if t.cmp(probe, h.elem) == 0 {
			// Replace with successor, delete successor from right subtree.
			succ := h.right
			for succ.left != nil {
				succ = succ.left
			}
			h.elem = succ.elem
			h.right = deleteMin(h.right)
		} else {
			h.right = t.delete(h.right, probe)
		}
	}
	return fixUp(h)
}

// Ascend calls fn on every element in order until fn returns false.
func (t *Tree[T]) Ascend(fn func(T) bool) {
	ascend(t.root, fn)
}

func ascend[T any](n *node[T], fn func(T) bool) bool {
	if n == nil {
		return true
	}
	if !ascend(n.left, fn) {
		return false
	}
	if !fn(n.elem) {
		return false
	}
	return ascend(n.right, fn)
}

// AscendFrom calls fn on every element >= lo in order until fn returns false.
func (t *Tree[T]) AscendFrom(lo T, fn func(T) bool) {
	ascendFrom(t.root, t.cmp, lo, fn)
}

func ascendFrom[T any](n *node[T], cmp func(a, b T) int, lo T, fn func(T) bool) bool {
	if n == nil {
		return true
	}
	c := cmp(lo, n.elem)
	if c < 0 {
		if !ascendFrom(n.left, cmp, lo, fn) {
			return false
		}
	}
	if c <= 0 {
		if !fn(n.elem) {
			return false
		}
	}
	return ascendFrom(n.right, cmp, lo, fn)
}

// AscendRange calls fn, in order, on the elements e with pos(e) == 0 until
// fn returns false. pos must be monotone along the tree's order: negative
// for elements before the range, zero inside it, positive after — so the
// range is located without a probe element (and without allocating one).
func (t *Tree[T]) AscendRange(pos func(T) int, fn func(T) bool) {
	ascendRange(t.root, pos, fn)
}

func ascendRange[T any](n *node[T], pos func(T) int, fn func(T) bool) bool {
	if n == nil {
		return true
	}
	c := pos(n.elem)
	if c >= 0 && !ascendRange(n.left, pos, fn) {
		return false
	}
	if c == 0 && !fn(n.elem) {
		return false
	}
	return c > 0 || ascendRange(n.right, pos, fn)
}

// Clear removes all elements.
func (t *Tree[T]) Clear() {
	t.root = nil
	t.size = 0
}
