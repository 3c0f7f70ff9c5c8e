package delta

import (
	"github.com/jstar-lang/jstar/internal/tuple"
)

// This file implements the k-way merge of runs sorted by tuple.ComparePath,
// used twice on a tuple's way through the Delta set: the engine's step
// boundary merges the put runs its worker slots sealed into one flush, and
// a leaf that collected several runs merges them when it drains. Duplicates
// (set semantics: same schema, same fields) are adjacent in the merged
// stream and are dropped there, each reported to the dup callback.

// loserTree is a k-way tournament tree over run cursors (Knuth 5.4.1):
// node[1..k-1] hold the losing run of each internal match, node[0] the
// overall winner, and leaf j's parent is (k+j)/2 in the implicit layout.
// Advancing the winner replays only its root path — log2(k) comparisons
// per emitted tuple, against k-1 for a naive scan of run heads.
type loserTree struct {
	runs [][]*tuple.Tuple
	pos  []int
	node []int
}

func newLoserTree(runs [][]*tuple.Tuple) *loserTree {
	k := len(runs)
	lt := &loserTree{runs: runs, pos: make([]int, k), node: make([]int, k)}
	for i := range lt.node {
		lt.node[i] = -1 // empty slot: beats every contender during seeding
	}
	for j := k - 1; j >= 0; j-- {
		lt.replay(j)
	}
	return lt
}

// beats reports whether run a's head sorts before run b's. The -1 sentinel
// always wins (so seeding parks real runs at the internal nodes);
// exhausted runs always lose (so they sink and never resurface).
func (lt *loserTree) beats(a, b int) bool {
	if a == -1 {
		return true
	}
	if b == -1 {
		return false
	}
	ea, eb := lt.pos[a] >= len(lt.runs[a]), lt.pos[b] >= len(lt.runs[b])
	if ea || eb {
		return !ea && eb
	}
	return tuple.ComparePath(lt.runs[a][lt.pos[a]], lt.runs[b][lt.pos[b]]) < 0
}

// replay pushes contender run r from its leaf toward the root, swapping at
// every internal node it loses, and records the surviving winner.
func (lt *loserTree) replay(r int) {
	winner := r
	for i := (len(lt.node) + r) / 2; i >= 1; i /= 2 {
		if lt.beats(lt.node[i], winner) {
			winner, lt.node[i] = lt.node[i], winner
		}
	}
	lt.node[0] = winner
}

// next returns the smallest unconsumed tuple across all runs, or nil when
// every run is exhausted.
func (lt *loserTree) next() *tuple.Tuple {
	w := lt.node[0]
	if w < 0 || lt.pos[w] >= len(lt.runs[w]) {
		return nil
	}
	t := lt.runs[w][lt.pos[w]]
	lt.pos[w]++
	lt.replay(w)
	return t
}

// MergeRuns merges k ComparePath-sorted runs into out (which it appends to
// and returns), dropping set-semantics duplicates and reporting each
// dropped tuple to dup. Runs must each be sorted by tuple.ComparePath; the
// output is the sorted, deduplicated union.
func MergeRuns(runs [][]*tuple.Tuple, out []*tuple.Tuple, dup func(*tuple.Tuple)) []*tuple.Tuple {
	switch len(runs) {
	case 0:
		return out
	case 1:
		for _, t := range runs[0] {
			out = appendDedup(out, t, dup)
		}
		return out
	}
	lt := newLoserTree(runs)
	for t := lt.next(); t != nil; t = lt.next() {
		out = appendDedup(out, t, dup)
	}
	return out
}

// appendDedup appends t to the sorted stream out unless it duplicates the
// previously kept tuple. ComparePath == 0 alone is not proof of identity
// for exotic unregistered schemas, so Equal confirms before dropping.
func appendDedup(out []*tuple.Tuple, t *tuple.Tuple, dup func(*tuple.Tuple)) []*tuple.Tuple {
	if n := len(out); n > 0 {
		if last := out[n-1]; tuple.ComparePath(last, t) == 0 && last.Equal(t) {
			if dup != nil {
				dup(t)
			}
			return out
		}
	}
	return append(out, t)
}

// DedupSorted compacts one ComparePath-sorted run in place, dropping
// set-semantics duplicates through dup, and returns the kept prefix. The
// single-run fast path of the step flush: no copy at all when the run is
// already duplicate-free.
func DedupSorted(ts []*tuple.Tuple, dup func(*tuple.Tuple)) []*tuple.Tuple {
	w := 1
	for i := 1; i < len(ts); i++ {
		t := ts[i]
		if last := ts[w-1]; tuple.ComparePath(last, t) == 0 && last.Equal(t) {
			if dup != nil {
				dup(t)
			}
			continue
		}
		ts[w] = t
		w++
	}
	if len(ts) == 0 {
		return ts
	}
	return ts[:w]
}
