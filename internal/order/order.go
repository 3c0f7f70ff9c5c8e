// Package order implements JStar's causality ordering machinery: the partial
// order over literal names declared with `order A < B < C`, and the causal
// keys extracted from tuples via their table's orderby lists.
//
// The Delta tree is a multi-level priority queue sorted lexicographically by
// these keys (paper §5): level i of the tree is ordered by the ith entries of
// the orderby lists. Literal entries are ordered by the declared partial
// order (linearised to total ranks), `seq f` entries by the field value, and
// `par f` entries are unordered — tuples differing only in a par field are in
// the same causal equivalence class and may execute in parallel.
package order

import (
	"fmt"
	"sort"
	"sync"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// PartialOrder records `order A < B` declarations over literal names and
// assigns each name a total rank consistent with the partial order
// (a deterministic topological linearisation).
//
// All methods are safe for concurrent use: Rank memoises lazily (first call
// after a mutation recomputes the linearisation), and it is reached
// concurrently — under CheckCausality, rule firings on pool workers resolve
// causal keys (KeyOf) through their Ctx while other workers do the same —
// so the memo state is guarded by an RWMutex with the settled read path
// taking only RLock.
type PartialOrder struct {
	mu    sync.RWMutex
	names map[string]int  // name -> node index
	list  []string        // node index -> name
	less  map[[2]int]bool // transitive closure: less[{a,b}] => a < b
	edges map[int][]int   // declared direct edges a -> b meaning a < b
	ranks map[string]int  // linearised total rank
	dirty bool            // ranks need recompute
}

// NewPartialOrder returns an empty order registry.
func NewPartialOrder() *PartialOrder {
	return &PartialOrder{
		names: make(map[string]int),
		less:  make(map[[2]int]bool),
		edges: make(map[int][]int),
		ranks: make(map[string]int),
	}
}

// Declare adds a chain `order a < b < c ...`. It returns an error if the
// declaration would create a cycle (which would make stratification
// impossible).
func (p *PartialOrder) Declare(chain ...string) error {
	if len(chain) < 2 {
		return fmt.Errorf("jstar: order declaration needs at least two names")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i+1 < len(chain); i++ {
		if err := p.addEdge(chain[i], chain[i+1]); err != nil {
			return err
		}
	}
	p.dirty = true
	return nil
}

// Touch registers a literal name without ordering constraints so it
// participates in rank assignment (tables whose orderby literal is never
// mentioned in an order declaration).
func (p *PartialOrder) Touch(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.node(name)
	p.dirty = true
}

func (p *PartialOrder) node(name string) int {
	if i, ok := p.names[name]; ok {
		return i
	}
	i := len(p.list)
	p.names[name] = i
	p.list = append(p.list, name)
	return i
}

func (p *PartialOrder) addEdge(a, b string) error {
	ai, bi := p.node(a), p.node(b)
	if ai == bi {
		return fmt.Errorf("jstar: order %s < %s is reflexive", a, b)
	}
	if p.less[[2]int{bi, ai}] {
		return fmt.Errorf("jstar: order %s < %s contradicts existing order %s < %s", a, b, b, a)
	}
	if p.less[[2]int{ai, bi}] {
		return nil // already known
	}
	p.edges[ai] = append(p.edges[ai], bi)
	// Update transitive closure: everything <= a is now < everything >= b.
	var below, above []int
	below = append(below, ai)
	above = append(above, bi)
	for x := range p.list {
		if p.less[[2]int{x, ai}] {
			below = append(below, x)
		}
		if p.less[[2]int{bi, x}] {
			above = append(above, x)
		}
	}
	for _, x := range below {
		for _, y := range above {
			if x == y {
				return fmt.Errorf("jstar: order %s < %s creates a cycle", a, b)
			}
			p.less[[2]int{x, y}] = true
		}
	}
	return nil
}

// Less reports whether a < b in the declared partial order.
func (p *PartialOrder) Less(a, b string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ai, aok := p.names[a]
	bi, bok := p.names[b]
	if !aok || !bok {
		return false
	}
	return p.less[[2]int{ai, bi}]
}

// Comparable reports whether a and b are ordered either way.
func (p *PartialOrder) Comparable(a, b string) bool {
	return a == b || p.Less(a, b) || p.Less(b, a)
}

// Rank returns the linearised total rank of a literal name. Unknown names
// are registered on the fly (rank assigned at next recompute). Ranks are a
// deterministic topological sort: ties broken alphabetically, so program
// output is independent of declaration order.
func (p *PartialOrder) Rank(name string) int {
	p.mu.RLock()
	if !p.dirty {
		if r, ok := p.ranks[name]; ok {
			p.mu.RUnlock()
			return r
		}
	}
	p.mu.RUnlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dirty {
		p.recompute()
	}
	r, ok := p.ranks[name]
	if !ok {
		p.node(name)
		p.recompute()
		r = p.ranks[name]
	}
	return r
}

func (p *PartialOrder) recompute() {
	// Kahn's algorithm with an alphabetical tie-break for determinism.
	indeg := make([]int, len(p.list))
	for _, outs := range p.edges {
		for _, b := range outs {
			indeg[b]++
		}
	}
	avail := make([]int, 0, len(p.list))
	for i, d := range indeg {
		if d == 0 {
			avail = append(avail, i)
		}
	}
	sortByName := func(xs []int) {
		sort.Slice(xs, func(i, j int) bool { return p.list[xs[i]] < p.list[xs[j]] })
	}
	sortByName(avail)
	rank := 0
	p.ranks = make(map[string]int, len(p.list))
	for len(avail) > 0 {
		n := avail[0]
		avail = avail[1:]
		p.ranks[p.list[n]] = rank
		rank++
		added := false
		for _, b := range p.edges[n] {
			indeg[b]--
			if indeg[b] == 0 {
				avail = append(avail, b)
				added = true
			}
		}
		if added {
			sortByName(avail)
		}
	}
	p.dirty = false
}

// Names returns all registered literal names, sorted by rank.
func (p *PartialOrder) Names() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dirty {
		p.recompute()
	}
	out := append([]string(nil), p.list...)
	sort.Slice(out, func(i, j int) bool { return p.ranks[out[i]] < p.ranks[out[j]] })
	return out
}

// Component is one resolved component of a tuple's causal key.
type Component struct {
	Kind tuple.OrderKind
	Rank int         // literal rank when Kind == OrderLit
	Lit  string      // literal name (for display)
	Val  tuple.Value // field value when Kind == OrderSeq or OrderPar
}

// Key is a tuple's causal key: its orderby list resolved against the tuple's
// field values and the literal ranks. Keys from different tables are
// comparable component-by-component; this is what makes the Delta tree a
// single queue over many tables.
type Key struct {
	Components []Component
}

// KeyOf resolves the causal key of t under partial order p.
func KeyOf(p *PartialOrder, t *tuple.Tuple) Key {
	s := t.Schema()
	comps := make([]Component, len(s.OrderBy))
	for i, e := range s.OrderBy {
		switch e.Kind {
		case tuple.OrderLit:
			comps[i] = Component{Kind: tuple.OrderLit, Rank: p.Rank(e.Lit), Lit: e.Lit}
		default:
			comps[i] = Component{Kind: e.Kind, Val: t.Field(s.OrderByColumn(i))}
		}
	}
	return Key{Components: comps}
}

// Compare orders two causal keys lexicographically.
//
//   - Lit components compare by rank.
//   - Seq components compare by value.
//   - A Par component ends comparability: keys agreeing on every earlier
//     component are in the same equivalence class (result 0) regardless of
//     the par field values.
//   - A shorter key that is a prefix of a longer one compares first: tuples
//     whose orderby list ends at an interior Delta-tree node are extracted
//     before any tuple in the subtrees below that node.
//   - Mixed component kinds at the same level (ill-typed programs) order
//     Lit < Seq deterministically.
func Compare(a, b Key) int {
	n := len(a.Components)
	if len(b.Components) < n {
		n = len(b.Components)
	}
	for i := 0; i < n; i++ {
		ca, cb := a.Components[i], b.Components[i]
		if ca.Kind == tuple.OrderPar || cb.Kind == tuple.OrderPar {
			return 0
		}
		if ca.Kind != cb.Kind {
			if ca.Kind == tuple.OrderLit {
				return -1
			}
			return 1
		}
		if ca.Kind == tuple.OrderLit {
			switch {
			case ca.Rank < cb.Rank:
				return -1
			case ca.Rank > cb.Rank:
				return 1
			}
			continue
		}
		if c := tuple.Compare(ca.Val, cb.Val); c != 0 {
			return c
		}
	}
	switch {
	case len(a.Components) < len(b.Components):
		return -1
	case len(a.Components) > len(b.Components):
		return 1
	}
	return 0
}

// String renders the key for debugging and DOT labels.
func (k Key) String() string {
	out := "["
	for i, c := range k.Components {
		if i > 0 {
			out += ", "
		}
		switch c.Kind {
		case tuple.OrderLit:
			out += c.Lit
		case tuple.OrderSeq:
			out += c.Val.String()
		case tuple.OrderPar:
			out += "par " + c.Val.String()
		}
	}
	return out + "]"
}
