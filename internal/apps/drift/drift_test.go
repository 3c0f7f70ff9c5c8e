package drift

import (
	"testing"

	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/gamma"
)

// small keeps the test workload quick; correctness does not need volume,
// only enough per-window traffic to clear the re-planner's floor.
func small(replanEvery int, strat exec.Strategy) RunOpts {
	return RunOpts{
		Keys:            2000,
		IngestWindows:   3,
		ProbeWindows:    3,
		ProbesPerWindow: 800,
		ReplanEvery:     replanEvery,
		Strategy:        strat,
		Threads:         4,
		Seed:            42,
	}
}

// TestAdaptiveMatchesFrozen: the adaptive run must produce exactly the
// Answer relation the frozen run does — migration and strategy switches
// change the physical layout, never the derived facts.
func TestAdaptiveMatchesFrozen(t *testing.T) {
	for _, strat := range []exec.Strategy{exec.Sequential, exec.ForkJoin} {
		t.Run(strat.String(), func(t *testing.T) {
			frozen, err := Run(small(0, strat))
			if err != nil {
				t.Fatal(err)
			}
			adaptive, err := Run(small(1, strat))
			if err != nil {
				t.Fatal(err)
			}
			if frozen.Answers != adaptive.Answers || frozen.Checksum != adaptive.Checksum {
				t.Fatalf("adaptive (answers=%d sum=%d) != frozen (answers=%d sum=%d)",
					adaptive.Answers, adaptive.Checksum, frozen.Answers, frozen.Checksum)
			}
			if len(frozen.Stats.Migrations) != 0 {
				t.Fatalf("frozen run migrated: %+v", frozen.Stats.Migrations)
			}
		})
	}
}

// TestAdaptiveConverges: the windowed planner must move Reading onto a
// point-probe backend (the hash family) and log the migration, under every
// strategy. It must get there during ingest, pulled by the probe trickle: a
// replanner that reacts only once the probe bursts hammer it is not
// following the drift.
func TestAdaptiveConverges(t *testing.T) {
	hashFamily := func(kind string) bool {
		kn := gamma.KindName(kind)
		return kn == "inthash" || kn == "hash"
	}
	for _, strat := range []exec.Strategy{exec.Auto, exec.Sequential, exec.ForkJoin} {
		t.Run(strat.String(), func(t *testing.T) {
			res, err := Run(small(1, strat))
			if err != nil {
				t.Fatal(err)
			}
			if !hashFamily(res.KindAfterIngest) {
				t.Errorf("Reading entered the probe phase on %q, want a hash-family kind by the end of ingest (migrations: %+v)",
					res.KindAfterIngest, res.Stats.Migrations)
			}
			if !hashFamily(res.ReadingKind) {
				t.Fatalf("Reading converged to %q, want a hash-family kind (migrations: %+v)",
					res.ReadingKind, res.Stats.Migrations)
			}
			found := false
			for _, m := range res.Stats.Migrations {
				if m.Table == "Reading" {
					found = true
				}
			}
			if !found {
				t.Fatalf("no Reading migration logged: %+v", res.Stats.Migrations)
			}
			if len(res.ProbeNanos) != 3 || len(res.IngestNanos) != 3 {
				t.Fatalf("window timings: ingest=%d probe=%d", len(res.IngestNanos), len(res.ProbeNanos))
			}
		})
	}
}
