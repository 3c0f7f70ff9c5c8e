// Command pvwatts runs the paper's Fig 4 solar-power program on the public
// API: read an hourly CSV (synthesised in memory; the paper used a 192MB
// NREL PVWatts export) and print the mean power generated in each month.
// It demonstrates the paper's headline claim: the same program runs
// sequentially or in parallel, with different data structures, purely by
// changing options.
//
//	go run ./examples/pvwatts -years 1 -threads 4 -noDelta
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"github.com/jstar-lang/jstar"
	"github.com/jstar-lang/jstar/internal/fastcsv"
	"github.com/jstar-lang/jstar/internal/pvgen"
	"github.com/jstar-lang/jstar/internal/reduce"
)

func main() {
	years := flag.Int("years", 1, "years of hourly data to synthesise")
	threads := flag.Int("threads", 0, "fork/join pool size (0 = NumCPU)")
	sequential := flag.Bool("sequential", false, "generate sequential code (-sequential)")
	noDelta := flag.Bool("noDelta", true, "apply -noDelta PvWatts (§5.1)")
	gammaHint := flag.String("gamma", "array", "PvWatts Gamma structure: default|hash|array")
	flag.Parse()

	csv := pvgen.CSV(pvgen.Generate(2000, *years, false, 42))
	fmt.Printf("input: %d years, %.1f MB CSV\n", *years, float64(len(csv))/1e6)

	p := jstar.NewProgram()
	req := p.Table("PvWattsRequest",
		jstar.Cols(jstar.StrCol("filename")), jstar.OrderBy(jstar.Lit("Req")))
	pv := p.Table("PvWatts",
		jstar.Cols(jstar.IntCol("year"), jstar.IntCol("month"), jstar.IntCol("day"),
			jstar.IntCol("hour"), jstar.IntCol("power")),
		jstar.OrderBy(jstar.Lit("PvWatts")))
	sum := p.Table("SumMonth",
		jstar.Cols(jstar.IntCol("year"), jstar.IntCol("month")),
		jstar.OrderBy(jstar.Lit("SumMonth")))
	p.Order("Req", "PvWatts", "SumMonth")

	switch *gammaHint {
	case "hash":
		p.GammaHint("PvWatts", jstar.HashStore(2))
	case "array":
		p.GammaHint("PvWatts", jstar.ArrayOfHashSets(1, 1, 12))
	}

	// foreach (PvWattsRequest req) { ...read PvWatts tuples from csv... }
	p.Rule("readCSV", req, func(c *jstar.Ctx, t *jstar.Tuple) {
		err := fastcsv.ReadRegion(csv, fastcsv.Region{Start: 0, End: len(csv)},
			func(rec *fastcsv.Record) error {
				y, _ := rec.Int(0)
				m, _ := rec.Int(1)
				d, _ := rec.Int(2)
				h, _ := rec.Int(3)
				w, err := rec.Int(4)
				if err != nil {
					return err
				}
				c.PutNew(pv, jstar.Int(y), jstar.Int(m), jstar.Int(d), jstar.Int(h), jstar.Int(w))
				return nil
			})
		if err != nil {
			panic(err)
		}
	})
	// foreach (PvWatts pv) { put new SumMonth(pv.year, pv.month) }
	p.Rule("monthly", pv, func(c *jstar.Ctx, t *jstar.Tuple) {
		c.PutNew(sum, t.Get("year"), t.Get("month"))
	})
	// foreach (SumMonth s) { Statistics over get PvWatts(s.year, s.month) }
	p.Rule("reduce", sum, func(c *jstar.Ctx, s *jstar.Tuple) {
		stats := reduce.NewStatistics()
		c.ForEach(pv, jstar.Eq(s.Get("year"), s.Get("month")), func(r *jstar.Tuple) bool {
			stats.Add(float64(r.Int("power")))
			return true
		})
		c.Printf("%d/%d: %.1f\n", s.Int("year"), s.Int("month"), stats.Mean())
	})
	p.Put(jstar.New(req, jstar.Str("large1000.csv")))

	opts := jstar.Options{Threads: *threads}
	if *sequential {
		opts.Strategy = jstar.StrategySequential
	}
	if *noDelta {
		opts.NoDelta = []string{"PvWatts"}
	}
	start := time.Now()
	run, err := p.Execute(opts)
	if err != nil {
		log.Fatal(err)
	}
	lines := run.Output()
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Print(l)
	}
	fmt.Printf("threads=%d noDelta=%v gamma=%s elapsed=%v (steps=%d, puts=%d)\n",
		run.Threads(), *noDelta, *gammaHint, time.Since(start).Round(time.Millisecond),
		run.Stats().Steps, run.Stats().Tables["PvWatts"].Puts.Load())
}
