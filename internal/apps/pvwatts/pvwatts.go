// Package pvwatts implements the paper's PvWatts case study (§6, Fig 4):
// a map-reduce style program that reads an hourly solar-output CSV and
// computes the mean power generated in each month.
//
// Three implementations are provided, matching the paper's comparisons:
//
//   - RunJStar: the declarative program of Fig 4 on the engine, with the
//     -noDelta optimisation and the alternative Gamma data structures of
//     Fig 8 (default NavigableSet, hash index, custom array-of-hashsets),
//     and parallel region readers for the CSV input.
//   - RunBaseline: the hand-coded "Java" version — readLine + String.split
//     and a hash map of accumulators.
//   - RunDisruptor: the §6.3 redesign — a single producer parsing the CSV
//     into a ring buffer and one consumer per month with local state.
package pvwatts

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/disruptor"
	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/fastcsv"
	"github.com/jstar-lang/jstar/internal/forkjoin"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/pvgen"
	"github.com/jstar-lang/jstar/internal/reduce"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// MonthKey identifies one (year, month) result row.
type MonthKey = [2]int32

// GammaKind selects the PvWatts Gamma data structure (the Fig 8 variants).
type GammaKind int

const (
	// GammaDefault is the NavigableSet default: the tree store, a B-tree
	// behind one lock, with or without a pool.
	GammaDefault GammaKind = iota
	// GammaHash hashes on (year, month).
	GammaHash
	// GammaArrayOfHash is the custom month-indexed array of hash sets.
	GammaArrayOfHash
)

// Name returns the display name of the variant.
func (g GammaKind) Name() string {
	switch g {
	case GammaHash:
		return "hash(year,month)"
	case GammaArrayOfHash:
		return "array-of-hashsets"
	default:
		return "navigable-set"
	}
}

// RunOpts configure a JStar PvWatts run.
type RunOpts struct {
	Strategy exec.Strategy // execution engine (zero value: decided per step)
	Threads  int
	NoDelta  bool // -noDelta PvWatts (§6.2: 23.0s -> 8.44s)
	NoGamma  bool // -noGamma SumMonth (SumMonth is trigger-only)
	Gamma    GammaKind
	// StorePlan replays a profile-guided per-table store plan (usually a
	// previous run's RunStats.SuggestStorePlan), overriding the Gamma
	// variant's hint for the tables it names.
	StorePlan gamma.StorePlan
	Readers   int // parallel CSV region readers (0 = Threads)
	// ParallelReduce runs each SumMonth reducer loop as a parallel tree
	// reduction — the §5.2 "additional parallelism" the paper leaves
	// unexploited ("loops that do involve a reducer object could also be
	// executed in parallel, with a tree-based pass to combine the final
	// reducer results").
	ParallelReduce bool
	// PhaseStats records the per-phase step breakdown, as cmd/jstar -stats
	// does for a source program; the repo benchmark's traced runs
	// (benchmark --trace 1) set it.
	PhaseStats bool
}

// parallelStats computes Statistics over vals with per-worker partials
// merged in a final pass (the §5.2 tree-combine).
func parallelStats(pool *forkjoin.Pool, vals []float64) *reduce.Statistics {
	workers := pool.Size()
	if workers > len(vals) {
		workers = len(vals)
	}
	if workers < 1 {
		workers = 1
	}
	parts := make([]*reduce.Statistics, workers)
	chunk := (len(vals) + workers - 1) / workers
	pool.For(workers, 1, func(w int) {
		st := reduce.NewStatistics()
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(vals) {
			hi = len(vals)
		}
		for i := lo; i < hi; i++ {
			st.Add(vals[i])
		}
		parts[w] = st
	})
	total := reduce.NewStatistics()
	for _, p := range parts {
		if p != nil {
			total.Merge(p)
		}
	}
	return total
}

// Result is the computed monthly means plus run diagnostics.
type Result struct {
	Means map[MonthKey]float64
	Run   *core.Run
}

// Program builds the Fig 4 program over the given CSV bytes.
func Program(csv []byte, opts RunOpts) (*core.Program, *core.Options, func(*core.Run) map[MonthKey]float64) {
	p := core.NewProgram()
	req := p.Table("PvWattsRequest",
		[]tuple.Column{{Name: "filename", Kind: tuple.KindString}},
		[]tuple.OrderEntry{tuple.Lit("Req")})
	// Column order (year, month, ...) makes (year, month) the query prefix.
	pv := p.Table("PvWatts",
		[]tuple.Column{
			{Name: "year", Kind: tuple.KindInt},
			{Name: "month", Kind: tuple.KindInt},
			{Name: "day", Kind: tuple.KindInt},
			{Name: "hour", Kind: tuple.KindInt},
			{Name: "power", Kind: tuple.KindInt},
		},
		[]tuple.OrderEntry{tuple.Lit("PvWatts")})
	sum := p.Table("SumMonth",
		[]tuple.Column{
			{Name: "year", Kind: tuple.KindInt},
			{Name: "month", Kind: tuple.KindInt},
		},
		[]tuple.OrderEntry{tuple.Lit("SumMonth")})
	res := p.Table("Result",
		[]tuple.Column{
			{Name: "year", Kind: tuple.KindInt},
			{Name: "month", Kind: tuple.KindInt},
			{Name: "mean", Kind: tuple.KindFloat},
		},
		[]tuple.OrderEntry{tuple.Lit("Result")})
	p.Order("Req", "PvWatts", "SumMonth", "Result")

	switch opts.Gamma {
	case GammaHash:
		p.GammaHint("PvWatts", gamma.NewHashStore(2))
	case GammaArrayOfHash:
		p.GammaHint("PvWatts", gamma.NewArrayOfHashSets(1, 1, 12))
	}

	// Read-loop rule: parse the CSV with parallel region readers (§6.2's
	// "the CSV reader library can run several readers in parallel, on
	// different parts of the input file"). Each reader parses into its own
	// slice and the rule puts the slices in region order, so the put run
	// keeps the file's order — readers appending to the firing slot's one
	// buffer would interleave their regions and hand the seal sort a
	// shuffled run. Under -noDelta there is no put run (a put is a Gamma
	// insert plus the monthly firing), so the readers put directly.
	p.Rule("readCSV", req, func(c *core.Ctx, t *tuple.Tuple) {
		readers := opts.Readers
		if readers <= 0 {
			readers = c.Threads()
		}
		regions := fastcsv.Regions(len(csv), readers)
		parsed := make([][]*tuple.Tuple, len(regions))
		readOne := func(i int) {
			// One line per record, give or take the one straddling each end.
			out := make([]*tuple.Tuple, 0, bytes.Count(csv[regions[i].Start:regions[i].End], []byte{'\n'})+1)
			err := fastcsv.ReadRegion(csv, regions[i], func(rec *fastcsv.Record) error {
				var f [5]tuple.Value
				for col := range f {
					v, err := rec.Int(col)
					if err != nil {
						return err
					}
					f[col] = tuple.Int(v)
				}
				pvt := tuple.New(pv, f[:]...)
				if opts.NoDelta {
					c.Put(pvt)
				} else {
					out = append(out, pvt)
				}
				return nil
			})
			if err != nil {
				panic(err)
			}
			parsed[i] = out
		}
		if pool := c.Pool(); pool != nil && len(regions) > 1 {
			pool.For(len(regions), 1, readOne)
		} else {
			for i := range regions {
				readOne(i)
			}
		}
		for _, ts := range parsed {
			for _, pvt := range ts {
				c.Put(pvt)
			}
		}
	})

	// foreach (PvWatts pv) { put new SumMonth(pv.year, pv.month); }
	p.Rule("monthly", pv, func(c *core.Ctx, t *tuple.Tuple) {
		c.PutNew(sum, t.Get("year"), t.Get("month"))
	})

	// foreach (SumMonth s) { Statistics over get PvWatts(s.year, s.month) }
	p.Rule("reduce", sum, func(c *core.Ctx, s *tuple.Tuple) {
		q := gamma.Query{Prefix: []tuple.Value{s.Get("year"), s.Get("month")}}
		var stats *reduce.Statistics
		pool, havePool := c.Pool().(*forkjoin.Pool)
		if opts.ParallelReduce && havePool {
			// §5.2 extension: materialise the month's readings, then a
			// parallel reduction with merged Statistics partials.
			var powers []float64
			c.ForEach(pv, q, func(r *tuple.Tuple) bool {
				powers = append(powers, float64(r.Int("power")))
				return true
			})
			stats = parallelStats(pool, powers)
		} else {
			stats = reduce.NewStatistics()
			c.ForEach(pv, q, func(r *tuple.Tuple) bool {
				stats.Add(float64(r.Int("power")))
				return true
			})
		}
		c.PutNew(res, s.Get("year"), s.Get("month"), tuple.Float(stats.Mean()))
	})

	p.Put(tuple.New(req, tuple.String_("large1000.csv")))

	co := &core.Options{
		Strategy:   opts.Strategy,
		Threads:    opts.Threads,
		StorePlan:  opts.StorePlan,
		Quiet:      true,
		PhaseStats: opts.PhaseStats,
	}
	if opts.NoDelta {
		co.NoDelta = append(co.NoDelta, "PvWatts")
	}
	if opts.NoGamma {
		co.NoGamma = append(co.NoGamma, "SumMonth")
	}
	read := func(run *core.Run) map[MonthKey]float64 {
		out := make(map[MonthKey]float64)
		run.Gamma().Table(res).Scan(func(t *tuple.Tuple) bool {
			out[MonthKey{int32(t.Int("year")), int32(t.Int("month"))}] = t.Float("mean")
			return true
		})
		return out
	}
	return p, co, read
}

// RunJStar executes the Fig 4 program and returns the monthly means.
func RunJStar(csv []byte, opts RunOpts) (*Result, error) {
	p, co, read := Program(csv, opts)
	run, err := p.Execute(*co)
	if err != nil {
		return nil, err
	}
	return &Result{Means: read(run), Run: run}, nil
}

// RunBaseline is the hand-coded comparison program, written the way the
// paper describes the Java version: BufferedReader.readLine plus
// String.split — i.e. per-line string allocation and strconv — then a map
// of accumulators.
func RunBaseline(csv []byte) (map[MonthKey]float64, error) {
	type acc struct {
		sum   int64
		count int64
	}
	accs := make(map[MonthKey]*acc, 24)
	for _, line := range strings.Split(string(csv), "\n") {
		if line == "" {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 5 {
			return nil, fmt.Errorf("pvwatts: bad line %q", line)
		}
		y, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, err
		}
		m, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, err
		}
		pw, err := strconv.Atoi(parts[4])
		if err != nil {
			return nil, err
		}
		k := MonthKey{int32(y), int32(m)}
		a := accs[k]
		if a == nil {
			a = &acc{}
			accs[k] = a
		}
		a.sum += int64(pw)
		a.count++
	}
	out := make(map[MonthKey]float64, len(accs))
	for k, a := range accs {
		out[k] = float64(a.sum) / float64(a.count)
	}
	return out, nil
}

// GenerateCSV produces the synthetic input file (§6.2 substitutes NREL's
// 192MB export; size scales with years).
func GenerateCSV(years int, sorted bool, seed uint64) []byte {
	return pvgen.CSV(pvgen.Generate(2000, years, sorted, seed))
}

// pvEvent is the ring-buffer slot type of the Disruptor version.
type pvEvent struct {
	year, month int32
	power       int32
	sentinel    bool
}

// RunDisruptor executes the §6.3 two-phase Disruptor workflow: one producer
// parses the CSV and publishes PvWatts events; opts.Consumers consumers
// each own the months m where m % consumers == id, keep tuples in a local
// Gamma, and run the Statistics reducer on the sentinel.
func RunDisruptor(csv []byte, opts disruptor.Options) (map[MonthKey]float64, error) {
	if opts.Consumers < 1 {
		opts.Consumers = 12
	}
	if opts.Wait == nil {
		opts.Wait = &disruptor.BlockingWait{}
	}
	if opts.RingSize == 0 {
		opts.RingSize = 1024
	}
	ring := disruptor.NewRing[pvEvent](opts.RingSize, opts.Wait)

	type localAcc struct {
		sums   map[MonthKey]*reduce.Statistics
		result map[MonthKey]float64
	}
	locals := make([]*localAcc, opts.Consumers)
	done := make(chan int, opts.Consumers)
	for i := 0; i < opts.Consumers; i++ {
		c := ring.NewConsumer()
		la := &localAcc{sums: make(map[MonthKey]*reduce.Statistics)}
		locals[i] = la
		go func(id int) {
			// Phase 1: claim PvWatts tuples for our months into the local
			// Gamma; Phase 2 (sentinel): run the reducer loop.
			c.Run(func(_ int64, e *pvEvent) bool {
				if e.sentinel {
					la.result = make(map[MonthKey]float64, len(la.sums))
					for k, s := range la.sums {
						la.result[k] = s.Mean()
					}
					done <- id
					return false
				}
				if int(e.month-1)%opts.Consumers != id {
					return true // another consumer's month
				}
				k := MonthKey{e.year, e.month}
				s := la.sums[k]
				if s == nil {
					s = reduce.NewStatistics()
					la.sums[k] = s
				}
				s.Add(float64(e.power))
				return true
			})
		}(i)
	}

	// Producer: read and parse the file, publish into the ring, then the
	// sentinel.
	prod := ring.NewProducer(opts.ClaimBatch)
	var parseErr error
	err := fastcsv.ReadRegion(csv, fastcsv.Region{Start: 0, End: len(csv)},
		func(rec *fastcsv.Record) error {
			y, err := rec.Int(0)
			if err != nil {
				return err
			}
			m, err := rec.Int(1)
			if err != nil {
				return err
			}
			pw, err := rec.Int(4)
			if err != nil {
				return err
			}
			prod.Publish(func(e *pvEvent) {
				e.year, e.month, e.power, e.sentinel = int32(y), int32(m), int32(pw), false
			})
			return nil
		})
	if err != nil {
		parseErr = err
	}
	prod.Publish(func(e *pvEvent) { e.sentinel = true })
	for i := 0; i < opts.Consumers; i++ {
		<-done
	}
	if parseErr != nil {
		return nil, parseErr
	}
	out := make(map[MonthKey]float64, 24)
	for _, la := range locals {
		for k, v := range la.result {
			out[k] = v
		}
	}
	return out, nil
}
