// Package jstar_test holds the benchmark harness that regenerates the
// paper's evaluation (§6) as Go benchmarks: one benchmark (family) per
// figure and table, plus ablations for the design choices called out in
// DESIGN.md. cmd/jstar-bench prints the same experiments as formatted
// paper-style tables; these benches integrate with `go test -bench`.
//
// Sizes are scaled down from the paper's (192MB CSV, 1000x1000 matrices,
// 1M-vertex graphs, 100M doubles) so a full -bench=. run stays in minutes;
// the cmd/jstar-bench flags raise them for shape studies.
package jstar_test

import (
	"context"
	"fmt"
	jstar "github.com/jstar-lang/jstar"
	"sync/atomic"
	"testing"

	"github.com/jstar-lang/jstar/internal/apps/matmult"
	"github.com/jstar-lang/jstar/internal/apps/median"
	"github.com/jstar-lang/jstar/internal/apps/pvwatts"
	"github.com/jstar-lang/jstar/internal/apps/shortestpath"
	"github.com/jstar-lang/jstar/internal/delta"
	"github.com/jstar-lang/jstar/internal/disruptor"
	"github.com/jstar-lang/jstar/internal/forkjoin"
	"github.com/jstar-lang/jstar/internal/order"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// Scaled-down workload sizes shared by all benches.
const (
	benchPvYears = 2
	benchMatN    = 64
	benchSPV     = 4000
	benchMedianN = 200000
)

var benchCSV = pvwatts.GenerateCSV(benchPvYears, false, 42)
var benchCSVSorted = pvwatts.GenerateCSV(benchPvYears, true, 42)

// --- Fig 6: sequential JStar vs hand-coded baselines -------------------------

func BenchmarkFig06_PvWattsJStarSeq(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := pvwatts.RunJStar(benchCSV, pvwatts.RunOpts{
			Strategy: jstar.StrategySequential, NoDelta: true, Gamma: pvwatts.GammaArrayOfHash}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06_PvWattsBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := pvwatts.RunBaseline(benchCSV); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06_MatMultJStarSeq(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := matmult.RunJStar(matmult.RunOpts{
			N: benchMatN, Strategy: jstar.StrategySequential, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06_MatMultJStarBoxed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := matmult.RunJStar(matmult.RunOpts{
			N: benchMatN, Strategy: jstar.StrategySequential, Boxed: true, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06_MatMultNaive(b *testing.B) {
	a, bb := matmult.Inputs(benchMatN, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matmult.Naive(a, bb, benchMatN)
	}
}

func BenchmarkFig06_MatMultTransposed(b *testing.B) {
	a, bb := matmult.Inputs(benchMatN, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matmult.Transposed(a, bb, benchMatN)
	}
}

func BenchmarkFig06_DijkstraJStarSeq(b *testing.B) {
	gen := shortestpath.GenOpts{Vertices: benchSPV, Extra: 2 * benchSPV, Tasks: 24, Seed: 42}
	for i := 0; i < b.N; i++ {
		if _, err := shortestpath.RunJStar(shortestpath.RunOpts{
			Gen: gen, Strategy: jstar.StrategySequential}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06_DijkstraBaseline(b *testing.B) {
	gen := shortestpath.GenOpts{Vertices: benchSPV, Extra: 2 * benchSPV, Tasks: 24, Seed: 42}
	for i := 0; i < b.N; i++ {
		shortestpath.Baseline(shortestpath.Generate(gen), gen.Vertices)
	}
}

func BenchmarkFig06_MedianJStarSeq(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := median.RunJStar(median.RunOpts{
			N: benchMedianN, Regions: 24, Strategy: jstar.StrategySequential, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06_MedianSortBaseline(b *testing.B) {
	vals := median.Values(benchMedianN, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		median.SortBaseline(vals)
	}
}

func BenchmarkFig06_MedianQuickselect(b *testing.B) {
	vals := median.Values(benchMedianN, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		median.Quickselect(vals, 42)
	}
}

// --- §6.2: the -noDelta optimisation -----------------------------------------

func BenchmarkSec62_NoDeltaOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := pvwatts.RunJStar(benchCSV, pvwatts.RunOpts{
			Strategy: jstar.StrategySequential, NoDelta: false}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSec62_NoDeltaOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := pvwatts.RunJStar(benchCSV, pvwatts.RunOpts{
			Strategy: jstar.StrategySequential, NoDelta: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 8: PvWatts thread sweep per Gamma structure --------------------------

func BenchmarkFig08_Gamma(b *testing.B) {
	for _, g := range []pvwatts.GammaKind{
		pvwatts.GammaDefault, pvwatts.GammaHash, pvwatts.GammaArrayOfHash,
	} {
		for _, threads := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/threads=%d", g.Name(), threads), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := pvwatts.RunJStar(benchCSV, pvwatts.RunOpts{
						Threads: threads, NoDelta: true, Gamma: g}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Table 1: Disruptor tuning -------------------------------------------------

func BenchmarkTable1_Disruptor(b *testing.B) {
	waits := map[string]func() disruptor.WaitStrategy{
		"blocking": func() disruptor.WaitStrategy { return &disruptor.BlockingWait{} },
		"yielding": func() disruptor.WaitStrategy { return disruptor.YieldingWait{} },
		"busyspin": func() disruptor.WaitStrategy { return disruptor.BusySpinWait{} },
	}
	for _, ring := range []int{256, 1024, 4096} {
		for wname, mk := range waits {
			for _, batch := range []int{1, 256} {
				b.Run(fmt.Sprintf("ring=%d/wait=%s/batch=%d", ring, wname, batch),
					func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							opts := disruptor.Options{RingSize: ring, ClaimBatch: batch,
								Consumers: 12, Wait: mk()}
							if _, err := pvwatts.RunDisruptor(benchCSV, opts); err != nil {
								b.Fatal(err)
							}
						}
					})
			}
		}
	}
}

// --- Fig 10: Disruptor sorted vs unsorted --------------------------------------

func BenchmarkFig10_DisruptorUnsorted(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := pvwatts.RunDisruptor(benchCSV, disruptor.Defaults()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10_DisruptorSorted(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := pvwatts.RunDisruptor(benchCSVSorted, disruptor.Defaults()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 11/12/13: thread sweeps ------------------------------------------------

func BenchmarkFig11_MatMult(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := matmult.RunJStar(matmult.RunOpts{
					N: benchMatN, Threads: threads, Seed: 42}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig12_Dijkstra(b *testing.B) {
	gen := shortestpath.GenOpts{Vertices: benchSPV, Extra: 2 * benchSPV, Tasks: 24, Seed: 42}
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := shortestpath.RunJStar(shortestpath.RunOpts{
					Gen: gen, Threads: threads}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig13_Median(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := median.RunJStar(median.RunOpts{
					N: benchMedianN, Regions: 24, Threads: threads, Seed: 42}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Dispatch overhead ---------------------------------------------------------

// BenchmarkDispatch_PerFiring isolates the engine's per-firing dispatch cost:
// one step whose batch holds dispatchBatch trivial-bodied firings, so the
// measured time is dominated by rule lookup, stats accounting, Ctx setup and
// scheduling hand-off rather than rule work. The reported ns/firing metric is
// the number the batched FireBatch path exists to shrink.
func BenchmarkDispatch_PerFiring(b *testing.B) {
	const dispatchBatch = 4096
	for _, strat := range []jstar.Strategy{
		jstar.StrategySequential, jstar.StrategyForkJoin,
	} {
		b.Run(strat.String(), func(b *testing.B) {
			var sink2 atomic.Int64 // rule bodies fire concurrently
			for i := 0; i < b.N; i++ {
				p := jstar.NewProgram()
				src := p.Table("Src", jstar.Cols(jstar.IntCol("n")),
					jstar.OrderBy(jstar.Lit("Src")))
				work := p.Table("Work", jstar.Cols(jstar.IntCol("i")),
					jstar.OrderBy(jstar.Lit("Work")))
				p.Order("Src", "Work")
				p.Rule("fanout", src, func(c *jstar.Ctx, t *jstar.Tuple) {
					for j := int64(0); j < t.Int("n"); j++ {
						c.PutNew(work, jstar.Int(j))
					}
				})
				p.Rule("noop", work, func(c *jstar.Ctx, t *jstar.Tuple) {
					sink2.Add(t.Int("i"))
				})
				p.Put(jstar.New(src, jstar.Int(dispatchBatch)))
				run, err := p.Execute(jstar.Options{Strategy: strat, Threads: 4, Quiet: true})
				if err != nil {
					b.Fatal(err)
				}
				if got := run.Stats().TotalFired; got != dispatchBatch+1 {
					b.Fatalf("TotalFired = %d, want %d", got, dispatchBatch+1)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/dispatchBatch, "ns/firing")
		})
	}
}

// --- Step boundary ---------------------------------------------------------------

// BenchmarkStepBoundary isolates the step boundary itself: a fan-out step
// whose rule firings spread across the worker slots and each put one tuple,
// so the measured run is dominated by the boundary pipeline — BeginStep's
// sort + Gamma insert, the per-slot seal sorts, the k-way merge and the
// Delta bulk load — rather than rule work. The sweep crosses slot counts
// (threads) with batch sizes; boundary% reports the serial-boundary
// fraction (RunStats.SerialBoundaryFraction) the CI smoke gate watches.
func BenchmarkStepBoundary(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		for _, batch := range []int{1 << 10, 1 << 13} {
			strat := jstar.StrategyForkJoin
			if threads == 1 {
				strat = jstar.StrategySequential
			}
			b.Run(fmt.Sprintf("threads=%d/batch=%d", threads, batch), func(b *testing.B) {
				var fracSum float64
				for i := 0; i < b.N; i++ {
					p := jstar.NewProgram()
					src := p.Table("Src", jstar.Cols(jstar.IntCol("n")),
						jstar.OrderBy(jstar.Lit("Src")))
					work := p.Table("Work", jstar.Cols(jstar.IntCol("i")),
						jstar.OrderBy(jstar.Lit("Work")))
					out := p.Table("Out", jstar.Cols(jstar.IntCol("i")),
						jstar.OrderBy(jstar.Lit("Out")))
					p.Order("Src", "Work", "Out")
					p.Rule("fanout", src, func(c *jstar.Ctx, t *jstar.Tuple) {
						for j := int64(0); j < t.Int("n"); j++ {
							c.PutNew(work, jstar.Int(j))
						}
					})
					p.Rule("emit", work, func(c *jstar.Ctx, t *jstar.Tuple) {
						c.PutNew(out, t.Get("i"))
					})
					p.Put(jstar.New(src, jstar.Int(int64(batch))))
					run, err := p.Execute(jstar.Options{
						Strategy: strat, Threads: threads, Quiet: true, PhaseStats: true})
					if err != nil {
						b.Fatal(err)
					}
					st := run.Stats()
					if st.TotalLive != int64(2*batch+1) {
						b.Fatalf("TotalLive = %d, want %d", st.TotalLive, 2*batch+1)
					}
					fracSum += st.SerialBoundaryFraction()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*batch), "ns/tuple")
				b.ReportMetric(100*fracSum/float64(b.N), "boundary%")
			})
		}
	}
}

// --- Session ingestion ----------------------------------------------------------

// BenchmarkSessionIngest measures the streaming event path end to end:
// the benchmark goroutine is a non-coordinator producer calling
// Session.Put — each event passes through the multi-producer ingress
// ring, is absorbed at a step boundary and fires one rule — while the
// session's coordinator drains concurrently. The reported events/sec is
// the ingestion throughput number the CI BENCH_*.json artifact tracks
// (cmd/jstar-bench -smoke measures the same workload as session-ingest);
// that Put never waits for quiescence is what keeps it flat as rule work
// grows.
func BenchmarkSessionIngest(b *testing.B) {
	for _, strat := range []jstar.Strategy{
		jstar.StrategySequential, jstar.StrategyForkJoin,
	} {
		b.Run(strat.String(), func(b *testing.B) {
			p := jstar.NewProgram()
			ev := p.Table("Event", jstar.Cols(jstar.IntCol("n")),
				jstar.OrderBy(jstar.Lit("Event")))
			out := p.Table("Out", jstar.Cols(jstar.IntCol("n"), jstar.IntCol("v")),
				jstar.OrderBy(jstar.Lit("Out")))
			p.Order("Event", "Out")
			p.Rule("double", ev, func(c *jstar.Ctx, t *jstar.Tuple) {
				c.PutNew(out, t.Get("n"), jstar.Int(2*t.Int("n")))
			})
			sess, err := p.Start(context.Background(), jstar.Options{
				Strategy: strat, Threads: 4, Quiet: true})
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sess.Put(jstar.New(ev, jstar.Int(int64(i)))); err != nil {
					b.Fatal(err)
				}
			}
			if err := sess.Quiesce(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
			if got := int64(len(sess.Snapshot(out))); got != int64(b.N) {
				b.Fatalf("Out has %d tuples, want %d", got, b.N)
			}
		})
	}
}

// --- Ablations (DESIGN.md) ------------------------------------------------------

// BenchmarkAblation_DeltaBackend times the Delta tree's single-tuple
// insert/drain path. One arm only: the tree has a single backend, since no
// rule task inserts into it.
func BenchmarkAblation_DeltaBackend(b *testing.B) {
	s := tuple.MustSchema("E",
		[]tuple.Column{{Name: "t", Kind: tuple.KindInt}, {Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("t")})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := delta.NewSequential(order.NewPartialOrder())
			for j := int64(0); j < 5000; j++ {
				tr.Put(tuple.New(s, tuple.Int(j%512), tuple.Int(j)))
			}
			for tr.TakeMinBatch() != nil {
			}
		}
	})
}

// BenchmarkAblation_Scheduler compares the pool's chunked parallel-for against a
// plain serial loop on the rule-firing granularity the engine uses.
func BenchmarkAblation_Scheduler(b *testing.B) {
	work := func(i int) {
		x := i
		for k := 0; k < 200; k++ {
			x = x*1664525 + 1013904223
		}
		sink = x
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < 1024; j++ {
				work(j)
			}
		}
	})
	for _, threads := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("pool=%d", threads), func(b *testing.B) {
			p := forkjoin.NewPool(threads)
			defer p.Shutdown()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.For(1024, 8, work)
			}
		})
	}
}

var sink int

// BenchmarkAblation_ParallelReduce measures the §5.2 extension: running
// each SumMonth reducer loop as a parallel tree reduction instead of a
// sequential fold inside one task.
func BenchmarkAblation_ParallelReduce(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pvwatts.RunJStar(benchCSV, pvwatts.RunOpts{
					Threads: 4, NoDelta: true, Gamma: pvwatts.GammaArrayOfHash,
					ParallelReduce: on}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_BoxedVsPrimitive isolates the §6.1 boxed-Integer effect
// on the dot-product inner loop.
func BenchmarkAblation_BoxedVsPrimitive(b *testing.B) {
	b.Run("boxed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := matmult.RunJStar(matmult.RunOpts{
				N: 32, Strategy: jstar.StrategySequential, Boxed: true, Seed: 42}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("primitive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := matmult.RunJStar(matmult.RunOpts{
				N: 32, Strategy: jstar.StrategySequential, Seed: 42}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
