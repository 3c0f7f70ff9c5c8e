package pvwatts

import (
	"github.com/jstar-lang/jstar/internal/exec"
	"math"
	"testing"
)

// TestSuggestStorePlanGolden pins the planner's decisions on recorded
// PvWatts statistics: the readings table is put-dominated, all-int and
// point-probed at prefix (year, month), so it must move to the
// int-specialised open-addressing store; SumMonth is a pure dedup sink
// (every reading re-puts its month) and must get whole-row open
// addressing. A planner change that flips these kinds fails the build.
func TestSuggestStorePlanGolden(t *testing.T) {
	csv := GenerateCSV(1, false, 42)
	res, err := RunJStar(csv, RunOpts{Strategy: exec.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Run.Stats().SuggestStorePlan()
	want := map[string]string{
		"PvWatts":  "inthash:2",
		"SumMonth": "inthash:2",
	}
	for table, kind := range want {
		if plan[table] != kind {
			t.Errorf("plan[%s] = %q, want %q (full plan: %v)", table, plan[table], kind, plan)
		}
	}
	for _, table := range []string{"PvWattsRequest", "Result"} {
		if kind, ok := plan[table]; ok {
			t.Errorf("plan[%s] = %q, want no entry (below the volume floor)", table, kind)
		}
	}
}

// TestStorePlanReplayMatchesBaseline runs the two-run tuning loop at app
// level: the tuned run must change the readings backend and compute
// exactly the same monthly means.
func TestStorePlanReplayMatchesBaseline(t *testing.T) {
	csv := GenerateCSV(1, false, 42)
	base, err := RunJStar(csv, RunOpts{Strategy: exec.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	plan := base.Run.Stats().SuggestStorePlan()
	tuned, err := RunJStar(csv, RunOpts{Strategy: exec.Sequential, StorePlan: plan})
	if err != nil {
		t.Fatalf("tuned run: %v", err)
	}
	if got := tuned.Run.Stats().StoreKinds["PvWatts"]; got != "inthash:2" {
		t.Errorf("tuned PvWatts backend = %q, want inthash:2", got)
	}
	if len(tuned.Means) != len(base.Means) {
		t.Fatalf("tuned run computed %d months, baseline %d", len(tuned.Means), len(base.Means))
	}
	for k, v := range base.Means {
		if tv, ok := tuned.Means[k]; !ok || math.Abs(tv-v) > 1e-9 {
			t.Errorf("month %v: tuned mean %v, baseline %v", k, tuned.Means[k], v)
		}
	}
}
