// Package median implements the paper's Median-Finding case study (§6.6):
// find the median of a large array of random doubles with an explicitly
// parallel algorithm. A controller chooses a global pivot and divides the
// active window into N regions; each region partitions its slice around the
// pivot and reports partition sizes back; the controller then recurses into
// the part that must contain the median until one value remains.
//
// The Data table
//
//	table Data(int iter, int index -> double value)
//	  orderby (Int, seq iter, Data, seq index)
//
// uses the rolling two-iteration native array (RollingFloatArray): rules
// only touch iter and iter+1, so only two copies exist — the paper's
// combination of the native-arrays optimisation with Gamma garbage
// collection. Data tuples are not triggers, so -noDelta applies.
//
// Baselines: full sort (the paper's Java Arrays.sort program) and a
// sequential median-of-quickselect (the paper notes the JStar variant
// recursing only into the median half made it 2x faster than the sort).
package median

import (
	"errors"
	"sort"

	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/rng"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// RunOpts configure a JStar median run.
type RunOpts struct {
	N        int           // array size (the paper used 100 million)
	Regions  int           // partition tasks per iteration (default 24)
	Strategy exec.Strategy // execution engine (zero value: decided per step)
	Threads  int
	Seed     uint64
	MaxSteps int64 // safety valve for tests (0 = none)
	// StorePlan replays a profile-guided per-table store plan. The Data
	// table's RollingFloatArray hint is non-replannable (the rules downcast
	// the store), so suggested plans omit it and replay safely at any N.
	StorePlan gamma.StorePlan
	// PhaseStats records the per-phase step breakdown, as cmd/jstar -stats
	// does for a source program.
	PhaseStats bool
}

// Result carries the found median and run diagnostics.
type Result struct {
	Median float64
	Run    *core.Run
}

// Values generates the deterministic input array.
func Values(n int, seed uint64) []float64 {
	r := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64()
	}
	return out
}

// RunJStar executes the distributed quickselect on the engine.
func RunJStar(opts RunOpts) (*Result, error) {
	n := opts.N
	if opts.Regions < 1 {
		opts.Regions = 24
	}
	regions := int64(opts.Regions)
	p := core.NewProgram()

	data := p.Table("Data",
		[]tuple.Column{
			{Name: "iter", Kind: tuple.KindInt, Key: true},
			{Name: "index", Kind: tuple.KindInt, Key: true},
			{Name: "value", Kind: tuple.KindFloat},
		},
		[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("iter"), tuple.Lit("Data"), tuple.Seq("index")})
	ctrl := p.Table("Ctrl",
		[]tuple.Column{
			{Name: "iter", Kind: tuple.KindInt, Key: true},
			{Name: "start", Kind: tuple.KindInt},
			{Name: "end", Kind: tuple.KindInt},
			{Name: "k", Kind: tuple.KindInt},
		},
		[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("iter"), tuple.Lit("CtrlA")})
	scan := p.Table("Scan",
		[]tuple.Column{
			{Name: "iter", Kind: tuple.KindInt},
			{Name: "region", Kind: tuple.KindInt},
			{Name: "lo", Kind: tuple.KindInt},
			{Name: "hi", Kind: tuple.KindInt},
			{Name: "pivot", Kind: tuple.KindFloat},
		},
		[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("iter"), tuple.Lit("ScanB"), tuple.Par("region")})
	count := p.Table("Count",
		[]tuple.Column{
			{Name: "iter", Kind: tuple.KindInt},
			{Name: "region", Kind: tuple.KindInt},
			{Name: "lows", Kind: tuple.KindInt},
			{Name: "eqs", Kind: tuple.KindInt},
		},
		[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("iter"), tuple.Lit("CountC")})
	gather := p.Table("Gather",
		[]tuple.Column{{Name: "iter", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("iter"), tuple.Lit("GatherD")})
	move := p.Table("Move",
		[]tuple.Column{
			{Name: "iter", Kind: tuple.KindInt},
			{Name: "region", Kind: tuple.KindInt},
			{Name: "lo", Kind: tuple.KindInt},
			{Name: "hi", Kind: tuple.KindInt},
			{Name: "pivot", Kind: tuple.KindFloat},
			{Name: "dstLow", Kind: tuple.KindInt},
			{Name: "dstEq", Kind: tuple.KindInt},
			{Name: "dstHigh", Kind: tuple.KindInt},
			{Name: "nextStart", Kind: tuple.KindInt},
			{Name: "nextEnd", Kind: tuple.KindInt},
			{Name: "nextK", Kind: tuple.KindInt},
			{Name: "found", Kind: tuple.KindBool},
		},
		[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("iter"), tuple.Lit("MoveE"), tuple.Par("region")})
	result := p.Table("Result",
		[]tuple.Column{{Name: "value", Kind: tuple.KindFloat}},
		[]tuple.OrderEntry{tuple.Lit("Result")})
	p.Order("CtrlA", "ScanB", "CountC", "GatherD", "MoveE")
	p.GammaHint("Data", gamma.NewRollingFloatArray(n))

	arr := func(c *core.Ctx) *gamma.RollingFloatArray {
		return c.GammaTable(data).(*gamma.RollingFloatArray)
	}
	// Window bounds of region r within [start, end).
	regionBounds := func(start, end, r int64) (int64, int64) {
		size := end - start
		return start + r*size/regions, start + (r+1)*size/regions
	}

	// Controller: finish, or pick a pivot and fan out region scans.
	p.Rule("control", ctrl, func(c *core.Ctx, t *tuple.Tuple) {
		iter, start, end := t.Int("iter"), t.Int("start"), t.Int("end")
		a := arr(c)
		if end-start == 1 {
			c.PutNew(result, tuple.Float(a.GetF(iter, start)))
			return
		}
		// Deterministic pseudo-random pivot from the active window.
		pr := rng.New(opts.Seed ^ (uint64(iter)+1)*0x9e3779b97f4a7c15)
		pivot := a.GetF(iter, start+pr.Int63n(end-start))
		for r := int64(0); r < regions; r++ {
			lo, hi := regionBounds(start, end, r)
			c.PutNew(scan, tuple.Int(iter), tuple.Int(r), tuple.Int(lo), tuple.Int(hi),
				tuple.Float(pivot))
		}
	})

	// Region scan: count lows/eqs in the region (first parallel pass).
	p.Rule("scan", scan, func(c *core.Ctx, t *tuple.Tuple) {
		iter, lo, hi, pivot := t.Int("iter"), t.Int("lo"), t.Int("hi"), t.Float("pivot")
		a := arr(c)
		var lows, eqs int64
		for i := lo; i < hi; i++ {
			switch v := a.GetF(iter, i); {
			case v < pivot:
				lows++
			case v == pivot:
				eqs++
			}
		}
		c.PutNew(count, tuple.Int(iter), t.Get("region"), tuple.Int(lows), tuple.Int(eqs))
		c.PutNew(gather, tuple.Int(iter)) // dedup: one Gather per iteration
	})

	// Gather: prefix-sum the counts, decide recursion, fan out moves.
	p.Rule("gather", gather, func(c *core.Ctx, t *tuple.Tuple) {
		iter := t.Int("iter")
		// The controller tuple of this iteration holds the window.
		cw := c.GetUniq(ctrl, gamma.Query{Prefix: []tuple.Value{tuple.Int(iter)}})
		start, end, k := cw.Int("start"), cw.Int("end"), cw.Int("k")
		lows := make([]int64, regions)
		eqs := make([]int64, regions)
		c.ForEach(count, gamma.Query{Prefix: []tuple.Value{tuple.Int(iter)}},
			func(ct *tuple.Tuple) bool {
				lows[ct.Int("region")] = ct.Int("lows")
				eqs[ct.Int("region")] = ct.Int("eqs")
				return true
			})
		var lowTotal, eqTotal int64
		for r := int64(0); r < regions; r++ {
			lowTotal += lows[r]
			eqTotal += eqs[r]
		}
		// Destination layout in iteration iter+1:
		// [start .. +lowTotal) lows, then eqs, then highs.
		var nextStart, nextEnd, nextK int64
		found := false
		switch {
		case k < lowTotal:
			nextStart, nextEnd, nextK = start, start+lowTotal, k
		case k < lowTotal+eqTotal:
			found = true // the pivot is the k-th value
		default:
			// k is the rank within the window; the high part drops the
			// lows and eqs below it.
			nextStart, nextEnd = start+lowTotal+eqTotal, end
			nextK = k - lowTotal - eqTotal
		}
		lowOff, eqOff := start, start+lowTotal
		highOff := start + lowTotal + eqTotal
		for r := int64(0); r < regions; r++ {
			lo, hi := regionBounds(start, end, r)
			// The pivot travels via the Scan tuples; re-derive from any.
			var pv float64
			c.ForEach(scan, gamma.Query{
				Prefix: []tuple.Value{tuple.Int(iter), tuple.Int(r)},
			}, func(st *tuple.Tuple) bool { pv = st.Float("pivot"); return false })
			c.PutNew(move, tuple.Int(iter), tuple.Int(r), tuple.Int(lo), tuple.Int(hi),
				tuple.Float(pv), tuple.Int(lowOff), tuple.Int(eqOff), tuple.Int(highOff),
				tuple.Int(nextStart), tuple.Int(nextEnd), tuple.Int(nextK), tuple.Bool(found))
			lowOff += lows[r]
			eqOff += eqs[r]
			highOff += (hi - lo) - lows[r] - eqs[r]
		}
	})

	// Move: scatter the region into iteration iter+1 (second parallel
	// pass), then schedule the next iteration (deduplicated put).
	p.Rule("move", move, func(c *core.Ctx, t *tuple.Tuple) {
		iter := t.Int("iter")
		if t.Get("found").AsBool() {
			if t.Int("region") == 0 {
				c.PutNew(result, t.Get("pivot"))
			}
			return
		}
		a := arr(c)
		lo, hi, pivot := t.Int("lo"), t.Int("hi"), t.Float("pivot")
		dl, de, dh := t.Int("dstLow"), t.Int("dstEq"), t.Int("dstHigh")
		next := iter + 1
		for i := lo; i < hi; i++ {
			switch v := a.GetF(iter, i); {
			case v < pivot:
				a.SetF(next, dl, v)
				dl++
			case v == pivot:
				a.SetF(next, de, v)
				de++
			default:
				a.SetF(next, dh, v)
				dh++
			}
		}
		c.PutNew(ctrl, tuple.Int(next), t.Get("nextStart"), t.Get("nextEnd"), t.Get("nextK"))
	})

	opts2 := core.Options{
		Strategy:   opts.Strategy,
		Threads:    opts.Threads,
		NoDelta:    []string{"Data", "Count"},
		StorePlan:  opts.StorePlan,
		Quiet:      true,
		MaxSteps:   opts.MaxSteps,
		PhaseStats: opts.PhaseStats,
	}
	run, err := p.NewRun(opts2)
	if err != nil {
		return nil, err
	}
	// Bulk-load the input through the typed fast path — the paper's
	// generated native-array code does exactly this for Data tuples.
	a := run.Gamma().Table(data).(*gamma.RollingFloatArray)
	for i, v := range Values(n, opts.Seed) {
		a.SetF(0, int64(i), v)
	}
	p.Put(tuple.New(ctrl, tuple.Int(0), tuple.Int(0), tuple.Int(int64(n)),
		tuple.Int(int64((n-1)/2))))
	if err := run.Execute(); err != nil {
		return nil, err
	}
	var med float64
	got := false
	run.Gamma().Table(result).Scan(func(t *tuple.Tuple) bool {
		med, got = t.Float("value"), true
		return false
	})
	if !got {
		return &Result{Run: run}, errNoResult
	}
	return &Result{Median: med, Run: run}, nil
}

var errNoResult = errors.New("median: program finished without a Result tuple")

// SortBaseline finds the k-th smallest by fully sorting a copy — the
// paper's Java Arrays.sort double-pivot-quicksort baseline.
func SortBaseline(vals []float64) float64 {
	cp := append([]float64(nil), vals...)
	sort.Float64s(cp)
	return cp[(len(cp)-1)/2]
}

// Quickselect finds the k-th smallest with a sequential median-specific
// quicksort variant that partitions and recurses only into the half
// containing the median (the trick that made JStar 2x faster, §6.1).
func Quickselect(vals []float64, seed uint64) float64 {
	cp := append([]float64(nil), vals...)
	k := (len(cp) - 1) / 2
	r := rng.New(seed)
	lo, hi := 0, len(cp) // active window [lo, hi)
	for hi-lo > 1 {
		pivot := cp[lo+r.Intn(hi-lo)]
		// 3-way partition.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := cp[i]; {
			case v < pivot:
				cp[lt], cp[i] = cp[i], cp[lt]
				lt++
				i++
			case v > pivot:
				gt--
				cp[gt], cp[i] = cp[i], cp[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k < gt:
			return pivot
		default:
			lo = gt
		}
	}
	return cp[lo]
}
