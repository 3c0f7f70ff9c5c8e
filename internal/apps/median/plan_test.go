package median

import (
	"testing"

	"github.com/jstar-lang/jstar/internal/exec"
)

// TestSuggestStorePlanGolden pins the planner on recorded median-run
// statistics: the Data table's RollingFloatArray hint is a manually
// parameterised backend the planner must never override — the rules
// downcast the store to *gamma.RollingFloatArray — so the suggested plan
// omits it entirely. That omission is what makes a saved plan safe to
// replay at a different array size: the GammaHint (which knows the current
// N) re-establishes the rolling store.
func TestSuggestStorePlanGolden(t *testing.T) {
	res, err := RunJStar(RunOpts{N: 2000, Regions: 4, Strategy: exec.Sequential, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Run.Stats().SuggestStorePlan()
	if spec, ok := plan["Data"]; ok {
		t.Errorf(`plan["Data"] = %q, want no entry (non-replannable hint)`, spec)
	}
	// Replaying at a LARGER size must still run on the hint's rolling store
	// and find the same median the baselines do.
	const n = 5000
	tuned, err := RunJStar(RunOpts{N: n, Regions: 4, Strategy: exec.Sequential, Seed: 11, StorePlan: plan})
	if err != nil {
		t.Fatalf("replaying %v at N=%d: %v", plan, n, err)
	}
	if got := tuned.Run.Stats().StoreKinds["Data"]; got != "rolling:5000" {
		t.Errorf("replayed Data backend = %q, want rolling:5000 (the hint re-sized to the run)", got)
	}
	if want := Quickselect(Values(n, 11), 11); tuned.Median != want {
		t.Errorf("tuned median = %v, quickselect baseline = %v", tuned.Median, want)
	}
}

// TestPhaseStatsRecorded: the PhaseStats plumbing reaches the engine — a
// run with it set reports a non-empty phase breakdown.
func TestPhaseStatsRecorded(t *testing.T) {
	res, err := RunJStar(RunOpts{N: 1000, Regions: 4, Strategy: exec.Sequential, Seed: 3, PhaseStats: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Run.Stats()
	if st.FireNanos+st.BoundaryNanos() == 0 {
		t.Error("PhaseStats run recorded no phase nanos")
	}
}
