// Package shortestpath implements the paper's Dijkstra case study (§6.5,
// Fig 5). The program generates a random connected graph (a spanning tree
// plus extra random edges, weights 1..10) and finds the shortest path from
// vertex 0 to every vertex. The Delta tree acts as the priority queue:
// Estimate tuples are ordered by increasing distance, so the engine's
// minimum-batch extraction is exactly Dijkstra's next-closest selection.
//
// As in the paper, graph creation is split into parallel tasks (originally
// 24) because a single generation rule was a >60% sequential bottleneck,
// and the -noDelta / -noGamma optimisations are applied: Edge and Done are
// never triggers (straight to Gamma), Estimate is trigger-only (never
// stored).
package shortestpath

import (
	"container/heap"

	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/rng"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// Edge is one directed edge of the generated graph.
type Edge struct {
	From, To int32
	Value    int32 // length 1..10
}

// GenOpts configure graph generation.
type GenOpts struct {
	Vertices int
	Extra    int // extra random edges beyond the spanning tree
	Tasks    int // parallel generation tasks (paper used 24)
	Seed     uint64
}

// taskEdges generates the edges owned by one generation task,
// deterministically from (Seed, task). Tree edges guarantee connectivity:
// vertex v (>0) gets an edge from a random earlier vertex.
func taskEdges(o GenOpts, task int, emit func(Edge)) {
	r := rng.New(o.Seed + uint64(task)*0x9e3779b97f4a7c15)
	nv, nt := o.Vertices, o.Tasks
	loV, hiV := task*nv/nt, (task+1)*nv/nt
	for v := loV; v < hiV; v++ {
		if v == 0 {
			continue
		}
		emit(Edge{From: int32(r.Intn(v)), To: int32(v), Value: int32(1 + r.Intn(10))})
	}
	loE, hiE := task*o.Extra/nt, (task+1)*o.Extra/nt
	for i := loE; i < hiE; i++ {
		u, w := r.Intn(nv), r.Intn(nv)
		emit(Edge{From: int32(u), To: int32(w), Value: int32(1 + r.Intn(10))})
	}
}

// Generate returns the full edge list (what the 24 tasks jointly produce).
func Generate(o GenOpts) []Edge {
	if o.Tasks < 1 {
		o.Tasks = 1
	}
	var out []Edge
	for t := 0; t < o.Tasks; t++ {
		taskEdges(o, t, func(e Edge) { out = append(out, e) })
	}
	return out
}

// RunOpts configure a JStar run.
type RunOpts struct {
	Gen      GenOpts
	Strategy exec.Strategy // execution engine (zero value: decided per step)
	Threads  int
	// StorePlan replays a profile-guided per-table store plan, overriding
	// the hash hints on Edge and Done for the tables it names.
	StorePlan gamma.StorePlan
	Verbose   bool // keep the Fig 5 println output
	// PhaseStats records the per-phase step breakdown, as cmd/jstar -stats
	// does for a source program; the repo benchmark's traced runs
	// (benchmark --trace 1) set it.
	PhaseStats bool
}

// Result carries the distances (index = vertex, -1 unreachable).
type Result struct {
	Dist []int64
	Run  *core.Run
}

// RunJStar executes the Fig 5 program.
func RunJStar(opts RunOpts) (*Result, error) {
	o := opts.Gen
	if o.Tasks < 1 {
		o.Tasks = 1
	}
	p := core.NewProgram()
	genTask := p.Table("GenTask",
		[]tuple.Column{{Name: "task", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Gen")})
	edge := p.Table("Edge",
		[]tuple.Column{
			{Name: "from", Kind: tuple.KindInt},
			{Name: "to", Kind: tuple.KindInt},
			{Name: "value", Kind: tuple.KindInt},
		},
		[]tuple.OrderEntry{tuple.Lit("Edge")})
	est := p.Table("Estimate",
		[]tuple.Column{
			{Name: "vertex", Kind: tuple.KindInt},
			{Name: "distance", Kind: tuple.KindInt},
		},
		[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("distance"), tuple.Lit("Estimate")})
	done := p.Table("Done",
		[]tuple.Column{
			{Name: "vertex", Kind: tuple.KindInt, Key: true},
			{Name: "distance", Kind: tuple.KindInt},
		},
		[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("distance"), tuple.Lit("Done")})
	p.Order("Gen", "Edge", "Int")
	p.Order("Estimate", "Done")
	// get Edge(dist.vertex) and get uniq? Done(edge.to) are point-prefix
	// queries: hash indexes on the first column.
	p.GammaHint("Edge", gamma.NewHashStore(1))
	p.GammaHint("Done", gamma.NewHashStore(1))

	// Parallel graph generation: one rule firing per GenTask tuple (§6.5:
	// "we modified the JStar program ... splitting the graph creation into
	// 24 separate tasks").
	p.Rule("generate", genTask, func(c *core.Ctx, t *tuple.Tuple) {
		taskEdges(o, int(t.Int("task")), func(e Edge) {
			c.PutNew(edge, tuple.Int(int64(e.From)), tuple.Int(int64(e.To)), tuple.Int(int64(e.Value)))
		})
	})

	// Fig 5's Dijkstra rule, verbatim structure.
	p.Rule("dijkstra", est, func(c *core.Ctx, dist *tuple.Tuple) {
		v, d := dist.Get("vertex"), dist.Int("distance")
		already := c.GetUniq(done, gamma.Query{
			Prefix: []tuple.Value{v},
			Where:  func(t *tuple.Tuple) bool { return t.Int("distance") < d },
		})
		if already == nil {
			if opts.Verbose {
				c.Printf("shortest path to %d is %d\n", v.AsInt(), d)
			}
			c.PutNew(done, v, tuple.Int(d))
			// process all adjacent nodes not yet done
			c.ForEach(edge, gamma.Query{Prefix: []tuple.Value{v}}, func(e *tuple.Tuple) bool {
				if c.GetUniq(done, gamma.Query{Prefix: []tuple.Value{e.Get("to")}}) == nil {
					c.PutNew(est, e.Get("to"), tuple.Int(d+e.Int("value")))
				}
				return true
			})
		}
	})

	for t := 0; t < o.Tasks; t++ {
		p.Put(tuple.New(genTask, tuple.Int(int64(t))))
	}
	p.Put(tuple.New(est, tuple.Int(0), tuple.Int(0))) // Set the origin.

	run, err := p.Execute(core.Options{
		Strategy:   opts.Strategy,
		Threads:    opts.Threads,
		NoDelta:    []string{"Edge", "Done"},
		NoGamma:    []string{"Estimate"},
		StorePlan:  opts.StorePlan,
		Quiet:      !opts.Verbose,
		PhaseStats: opts.PhaseStats,
	})
	if err != nil {
		return nil, err
	}
	distv := make([]int64, o.Vertices)
	for i := range distv {
		distv[i] = -1
	}
	run.Gamma().Table(done).Scan(func(t *tuple.Tuple) bool {
		distv[t.Int("vertex")] = t.Int("distance")
		return true
	})
	return &Result{Dist: distv, Run: run}, nil
}

// --- Hand-coded baseline ----------------------------------------------------

type pqItem struct {
	vertex int32
	dist   int64
}

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// Baseline is the hand-coded Dijkstra with a binary-heap PriorityQueue —
// the paper's Java comparison program (2x faster sequentially than pushing
// millions of Estimates through the Delta tree).
func Baseline(edges []Edge, vertices int) []int64 {
	adjHead := make([]int32, vertices)
	for i := range adjHead {
		adjHead[i] = -1
	}
	next := make([]int32, len(edges))
	for i, e := range edges {
		next[i] = adjHead[e.From]
		adjHead[e.From] = int32(i)
	}
	dist := make([]int64, vertices)
	for i := range dist {
		dist[i] = -1
	}
	q := &pq{{vertex: 0, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if dist[it.vertex] != -1 {
			continue
		}
		dist[it.vertex] = it.dist
		for ei := adjHead[it.vertex]; ei != -1; ei = next[ei] {
			e := edges[ei]
			if dist[e.To] == -1 {
				heap.Push(q, pqItem{vertex: e.To, dist: it.dist + int64(e.Value)})
			}
		}
	}
	return dist
}
