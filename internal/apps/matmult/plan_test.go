package matmult

import (
	"testing"

	"github.com/jstar-lang/jstar/internal/exec"
)

// TestSuggestStorePlanGolden pins the planner on recorded MatMult
// statistics: the Matrix table's dense3d hint is a manually parameterised
// backend the planner must never override — its rules downcast the store
// to *gamma.Dense3D — so the suggested plan omits it entirely. That
// omission is what makes a saved plan safe to replay at a different
// problem size: the GammaHint (which knows the current n) re-establishes
// the dense store, where a frozen "dense3d:3,16,16" spec would win over
// the hint and index out of range.
func TestSuggestStorePlanGolden(t *testing.T) {
	res, err := RunJStar(RunOpts{N: 16, Strategy: exec.Sequential, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Run.Stats().SuggestStorePlan()
	if spec, ok := plan["Matrix"]; ok {
		t.Errorf(`plan["Matrix"] = %q, want no entry (non-replannable hint)`, spec)
	}
	// Replaying at a LARGER size must still run on the hint's dense store.
	tuned, err := RunJStar(RunOpts{N: 24, Strategy: exec.Sequential, Seed: 7, StorePlan: plan})
	if err != nil {
		t.Fatalf("replaying %v at n=24: %v", plan, err)
	}
	if got := tuned.Run.Stats().StoreKinds["Matrix"]; got != "dense3d:3,24,24" {
		t.Errorf("replayed Matrix backend = %q, want dense3d:3,24,24", got)
	}
	ref, err := RunJStar(RunOpts{N: 24, Strategy: exec.Sequential, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.C {
		if ref.C[i] != tuned.C[i] {
			t.Fatalf("tuned product differs at %d: %d vs %d", i, tuned.C[i], ref.C[i])
		}
	}
}
