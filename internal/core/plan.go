package core

import (
	"fmt"

	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// This file is the profile-guided store planner: it turns one run's
// observed per-table statistics (puts, duplicates, query count and shape —
// the §1.5 logging loop) plus the mean fire chunk into a StorePlan for the
// next run. Save the plan, replay it through Options.StorePlan
// (or the cmd-level -save-plan/-store-plan flags), and the second run gets
// backends fitted to the first run's workload.

const (
	// planMinPuts is the volume floor: tables with fewer puts than this
	// are not worth re-planning (any backend handles them instantly), so
	// the planner leaves them on the strategy default.
	planMinPuts = 256
	// planBatchedMinPuts replaces the floor when dispatch ran heavily
	// batched (mean fire chunk >= planBatchedChunk): a chunk's firings
	// probe the store back to back, which amortises a specialised
	// backend's wins over whole chunks, so smaller tables already profit
	// from a switch.
	planBatchedMinPuts = 128
	planBatchedChunk   = 64
)

// replannable reports whether the planner may override a chosen store
// kind. The manually parameterised backends (dense3d, arrayhash, rolling)
// and opaque custom factories encode program knowledge — key ranges,
// rolling windows, typed fast paths that rules downcast to — that counters
// cannot reconstruct, so the planner never touches them: they are omitted
// from suggested plans entirely. Copying their specs into a plan would
// freeze this run's dimensions; replayed against the same program at a
// different problem size, the stale spec would beat the GammaHint that
// knows the current size and fail mid-run.
func replannable(kind string) bool {
	switch gamma.KindName(kind) {
	case "tree", "hash", "columnar":
		return true
	}
	return false
}

// PlanFromStats derives a per-table store plan from a finished run's
// statistics. Heuristics, per table (volume floor first):
//
//   - every observed query carried an equality prefix: the table is
//     point-probed, so it gets an index keyed at the MINIMUM observed
//     prefix depth k (any deeper and the shallowest queries would fall off
//     the keyed path onto a full scan). Put-dominated tables get
//     columnar:k (O(1) flat-row inserts and dedup, one chain per key);
//     query-dominated tables get the sharded hash index hash:k, whose
//     buckets hand back stored tuples without materialising rows;
//   - never queried, or queried only by full scans: append-mostly scan
//     workload, or a dedup sink (trigger tables like SumMonth) that wants
//     O(1) full-row dedup — the compressed columnar store;
//   - mixed shapes: no opinion; the table keeps its current backend.
//
// Tables whose chosen backend is not replannable are left out of the plan
// (their programmatic hints re-establish them on replay — see
// replannable), as are -noGamma tables (their stores are never used).
func PlanFromStats(rs *RunStats) gamma.StorePlan {
	plan := make(gamma.StorePlan)
	minPuts := int64(planMinPuts)
	if rs.MeanFireChunk() >= planBatchedChunk {
		minPuts = planBatchedMinPuts
	}
	for name, st := range rs.Tables {
		if rs.noGamma[name] {
			continue
		}
		if !replannable(rs.StoreKinds[name]) {
			continue
		}
		s := rs.schemas[name]
		if s == nil {
			continue
		}
		c := lifetimeCounters(st)
		if c.puts < minPuts {
			continue
		}
		if kind := suggestKind(s, c); kind != "" {
			plan[name] = kind
		}
	}
	return plan
}

// tableCounters is one table's planner-relevant counters over a whole run.
type tableCounters struct {
	puts, queries, indexed, minPrefix int64
}

func lifetimeCounters(st *TableStats) tableCounters {
	return tableCounters{
		puts:      st.Puts.Load(),
		queries:   st.Queries.Load(),
		indexed:   st.IndexedQueries.Load(),
		minPrefix: st.MinPrefixLen.Load(),
	}
}

// suggestKind applies the PlanFromStats heuristics to one table's counters.
// "" means no opinion (mixed query shapes): the table keeps its backend.
// The caller applies the volume floor; the heuristics only look at shape.
func suggestKind(s *tuple.Schema, c tableCounters) string {
	switch {
	case c.queries > 0 && c.indexed == c.queries:
		k := min(max(int(c.minPrefix), 1), s.Arity())
		if c.puts > c.queries {
			return gamma.ColumnarSpec(k)
		}
		return fmt.Sprintf("hash:%d", k)
	case c.indexed == 0:
		return "columnar"
	}
	return ""
}

// SuggestStorePlan recommends per-table store backends for re-running the
// same program, from this run's observed table statistics (see
// PlanFromStats for the heuristics).
func (s *RunStats) SuggestStorePlan() gamma.StorePlan { return PlanFromStats(s) }
