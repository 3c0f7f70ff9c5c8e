package pvwatts

import (
	"github.com/jstar-lang/jstar/internal/exec"
	"math"
	"testing"

	"github.com/jstar-lang/jstar/internal/disruptor"
	"github.com/jstar-lang/jstar/internal/pvgen"
)

// smallCSV is ~1 month-dense year of synthetic data shared across tests.
func smallCSV(t testing.TB, sorted bool) ([]byte, map[MonthKey]float64) {
	t.Helper()
	recs := pvgen.Generate(2000, 1, sorted, 42)
	return pvgen.CSV(recs), pvgen.MonthlyMeans(recs)
}

func sameMeans(t *testing.T, got, want map[MonthKey]float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d result months, want %d", label, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s: missing month %v", label, k)
		}
		if math.Abs(g-w) > 1e-9*(1+math.Abs(w)) {
			t.Errorf("%s: month %v mean = %v, want %v", label, k, g, w)
		}
	}
}

func TestBaselineMatchesReference(t *testing.T) {
	csv, want := smallCSV(t, false)
	got, err := RunBaseline(csv)
	if err != nil {
		t.Fatal(err)
	}
	sameMeans(t, got, want, "baseline")
}

func TestJStarVariantsAllAgree(t *testing.T) {
	csv, want := smallCSV(t, false)
	variants := []struct {
		name string
		opts RunOpts
	}{
		{"sequential", RunOpts{Strategy: exec.Sequential}},
		{"sequential-noDelta", RunOpts{Strategy: exec.Sequential, NoDelta: true}},
		{"parallel-2", RunOpts{Threads: 2, NoDelta: true}},
		{"parallel-4-hash", RunOpts{Threads: 4, NoDelta: true, Gamma: GammaHash}},
		{"parallel-4-arrayhash", RunOpts{Threads: 4, NoDelta: true, Gamma: GammaArrayOfHash}},
		{"parallel-noGamma-sum", RunOpts{Threads: 2, NoDelta: true, NoGamma: true}},
		{"readers-3", RunOpts{Threads: 4, NoDelta: true, Readers: 3}},
		{"parallel-reduce", RunOpts{Threads: 4, NoDelta: true, ParallelReduce: true}},
		{"parallel-reduce-seq", RunOpts{Strategy: exec.Sequential, ParallelReduce: true}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			res, err := RunJStar(csv, v.opts)
			if err != nil {
				t.Fatal(err)
			}
			sameMeans(t, res.Means, want, v.name)
		})
	}
}

func TestJStarDedupAndStats(t *testing.T) {
	csv, _ := smallCSV(t, false)
	res, err := RunJStar(csv, RunOpts{Strategy: exec.Sequential, NoDelta: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Run.Stats()
	// 8760 records put, only 12 unique SumMonth survive.
	if st.Tables["PvWatts"].Puts.Load() != int64(pvgen.RecordsPerYear) {
		t.Errorf("PvWatts puts = %d", st.Tables["PvWatts"].Puts.Load())
	}
	if st.Tables["SumMonth"].Triggers.Load() != 12 {
		t.Errorf("SumMonth triggers = %d, want 12", st.Tables["SumMonth"].Triggers.Load())
	}
	if d := st.Tables["SumMonth"].Duplicates.Load(); d != int64(pvgen.RecordsPerYear-12) {
		t.Errorf("SumMonth dups = %d", d)
	}
}

func TestNoDeltaReducesSteps(t *testing.T) {
	csv, _ := smallCSV(t, false)
	with, err := RunJStar(csv, RunOpts{Strategy: exec.Sequential, NoDelta: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := RunJStar(csv, RunOpts{Strategy: exec.Sequential, NoDelta: false})
	if err != nil {
		t.Fatal(err)
	}
	if with.Run.Stats().Steps >= without.Run.Stats().Steps {
		t.Errorf("noDelta steps %d must be fewer than %d",
			with.Run.Stats().Steps, without.Run.Stats().Steps)
	}
}

func TestDisruptorMatchesReference(t *testing.T) {
	for _, sorted := range []bool{false, true} {
		csv, want := smallCSV(t, sorted)
		for _, consumers := range []int{1, 3, 12} {
			opts := disruptor.Defaults()
			opts.Consumers = consumers
			got, err := RunDisruptor(csv, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameMeans(t, got, want, opts.String())
		}
	}
}

func TestDisruptorWaitStrategies(t *testing.T) {
	csv, want := smallCSV(t, false)
	for _, w := range []disruptor.WaitStrategy{
		&disruptor.BlockingWait{}, disruptor.YieldingWait{}, disruptor.BusySpinWait{},
	} {
		opts := disruptor.Defaults()
		opts.Wait = w
		opts.RingSize = 256
		opts.ClaimBatch = 64
		got, err := RunDisruptor(csv, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameMeans(t, got, want, w.Name())
	}
}

func TestTraceDataflowEdges(t *testing.T) {
	csv, _ := smallCSV(t, false)
	res, err := RunJStar(csv, RunOpts{Strategy: exec.Sequential, NoDelta: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	flow := res.Run.Stats().FlowEdges()
	if flow[[2]string{"readCSV", "PvWatts"}] != int64(pvgen.RecordsPerYear) {
		t.Errorf("readCSV->PvWatts flow = %d", flow[[2]string{"readCSV", "PvWatts"}])
	}
	if flow[[2]string{"monthly", "SumMonth"}] == 0 || flow[[2]string{"reduce", "Result"}] != 12 {
		t.Errorf("flow edges = %v", flow)
	}
}
