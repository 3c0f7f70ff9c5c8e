// Package matmult implements the paper's naive matrix multiplication case
// study (§6.4, Fig 11): each multiplication is requested by a tuple, which
// generates one row-request tuple per output row; each row request loops
// over the columns with a summation reducer computing dot products.
//
// The Matrix table
//
//	table Matrix(int mat, int row, int col -> int value)
//
// uses the "native-arrays" Gamma optimisation: dense int keys map onto flat
// Go arrays (the paper's Java 2D int arrays). A Boxed mode routes the inner
// loop through materialised tuples instead — reproducing the §6.1
// observation that XText's boxed Integers made the generated program 2.7x
// slower (21.9s vs 8.1s) until the loop used primitive ints.
//
// Baselines: the naive hand-coded triple loop (7.5s in the paper) and the
// cache-friendly transposed variant (1.0s).
package matmult

import (
	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/reduce"
	"github.com/jstar-lang/jstar/internal/rng"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// Matrix ids within the Matrix table.
const (
	MatA = 0
	MatB = 1
	MatC = 2
)

// RunOpts configure a JStar matrix multiplication run.
type RunOpts struct {
	N        int           // multiply two NxN matrices
	Strategy exec.Strategy // execution engine (zero value: decided per step)
	Threads  int
	Boxed    bool // route the inner loop through boxed tuples (§6.1)
	// StorePlan replays a profile-guided per-table store plan. The Matrix
	// table's dense3d hint survives a replay: the planner always carries
	// non-replannable specialised backends through to its suggested plans.
	StorePlan gamma.StorePlan
	Seed      uint64
	// PhaseStats records the per-phase step breakdown, as cmd/jstar -stats
	// does for a source program; the repo benchmark's traced runs
	// (benchmark --trace 1) set it.
	PhaseStats bool
}

// Result carries the product matrix (flat, row-major) and diagnostics.
type Result struct {
	C   []int64
	Run *core.Run
}

// Inputs generates the two deterministic input matrices, flat row-major.
func Inputs(n int, seed uint64) (a, b []int64) {
	r := rng.New(seed)
	a = make([]int64, n*n)
	b = make([]int64, n*n)
	for i := range a {
		a[i] = r.Int63n(100)
		b[i] = r.Int63n(100)
	}
	return a, b
}

// RunJStar executes the JStar program: MultRequest -> N RowReq tuples ->
// dot-product loops with a summation reducer.
func RunJStar(opts RunOpts) (*Result, error) {
	n := opts.N
	p := core.NewProgram()
	req := p.Table("MultRequest",
		[]tuple.Column{{Name: "n", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Req")})
	rowReq := p.Table("RowReq",
		[]tuple.Column{{Name: "row", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Row")})
	mat := p.Table("Matrix",
		[]tuple.Column{
			{Name: "mat", Kind: tuple.KindInt, Key: true},
			{Name: "row", Kind: tuple.KindInt, Key: true},
			{Name: "col", Kind: tuple.KindInt, Key: true},
			{Name: "value", Kind: tuple.KindInt},
		},
		[]tuple.OrderEntry{tuple.Lit("Matrix")})
	p.Order("Matrix", "Req", "Row")
	p.GammaHint("Matrix", gamma.NewDense3D(3, n, n))

	// foreach (MultRequest r): one RowReq per output row. All RowReq share
	// one causal equivalence class, so they form a single parallel batch —
	// "each row of the output matrix is a separate task".
	p.Rule("requestRows", req, func(c *core.Ctx, t *tuple.Tuple) {
		for row := int64(0); row < int64(n); row++ {
			c.PutNew(rowReq, tuple.Int(row))
		}
	})

	// foreach (RowReq row): nested loop with a summation reducer.
	p.Rule("dotProducts", rowReq, func(c *core.Ctx, t *tuple.Tuple) {
		row := t.Int("row")
		store := c.GammaTable(mat).(*gamma.Dense3D)
		if opts.Boxed {
			// Boxed mode: read operands through materialised tuples (the
			// XText-generated Integer-boxing inner loop of §6.1).
			for col := int64(0); col < int64(n); col++ {
				sum := &reduce.SumInt{}
				for k := int64(0); k < int64(n); k++ {
					var av, bv int64
					store.Select(gamma.Query{Prefix: []tuple.Value{
						tuple.Int(MatA), tuple.Int(row), tuple.Int(k)}},
						func(tp *tuple.Tuple) bool { av = tp.Int("value"); return false })
					store.Select(gamma.Query{Prefix: []tuple.Value{
						tuple.Int(MatB), tuple.Int(k), tuple.Int(col)}},
						func(tp *tuple.Tuple) bool { bv = tp.Int("value"); return false })
					sum.Add(av * bv)
				}
				store.SetInt(MatC, row, col, sum.Result())
			}
			return
		}
		// Primitive mode: the corrected generated code reads the operand
		// matrices through direct native-array views (§6.4); only the
		// result cells go through the store's atomic writer.
		pa := store.Plane(MatA)
		pb := store.Plane(MatB)
		for col := int64(0); col < int64(n); col++ {
			sum := &reduce.SumInt{}
			for k := int64(0); k < int64(n); k++ {
				sum.Add(pa[row*int64(n)+k] * pb[k*int64(n)+col])
			}
			store.SetInt(MatC, row, col, sum.Result())
		}
	})

	a, b := Inputs(n, opts.Seed)
	// Load the operand matrices as initial tuples. -noDelta Matrix: they
	// are never rule triggers, so they go straight into Gamma (§5.1).
	for i := int64(0); i < int64(n); i++ {
		for j := int64(0); j < int64(n); j++ {
			p.Put(tuple.New(mat, tuple.Int(MatA), tuple.Int(i), tuple.Int(j), tuple.Int(a[i*int64(n)+j])))
			p.Put(tuple.New(mat, tuple.Int(MatB), tuple.Int(i), tuple.Int(j), tuple.Int(b[i*int64(n)+j])))
		}
	}
	p.Put(tuple.New(req, tuple.Int(int64(n))))

	run, err := p.Execute(core.Options{
		Strategy:   opts.Strategy,
		Threads:    opts.Threads,
		NoDelta:    []string{"Matrix"},
		StorePlan:  opts.StorePlan,
		Quiet:      true,
		PhaseStats: opts.PhaseStats,
	})
	if err != nil {
		return nil, err
	}
	store := run.Gamma().Table(mat).(*gamma.Dense3D)
	out := make([]int64, n*n)
	for i := int64(0); i < int64(n); i++ {
		for j := int64(0); j < int64(n); j++ {
			v, _ := store.GetInt(MatC, i, j)
			out[i*int64(n)+j] = v
		}
	}
	return &Result{C: out, Run: run}, nil
}

// Naive is the hand-coded naive triple loop (row-major B accesses stride N:
// the paper's 7.5s Java baseline).
func Naive(a, b []int64, n int) []int64 {
	c := make([]int64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum int64
			for k := 0; k < n; k++ {
				sum += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = sum
		}
	}
	return c
}

// Transposed transposes B first so the inner loop walks both operands
// sequentially (the paper's 1.0s cache-friendly baseline).
func Transposed(a, b []int64, n int) []int64 {
	bt := make([]int64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			bt[j*n+i] = b[i*n+j]
		}
	}
	c := make([]int64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum int64
			ar := a[i*n : i*n+n]
			br := bt[j*n : j*n+n]
			for k := 0; k < n; k++ {
				sum += ar[k] * br[k]
			}
			c[i*n+j] = sum
		}
	}
	return c
}
