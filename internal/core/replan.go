package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// This file is the online half of the profile-guided planner: where
// plan.go derives a StorePlan for the *next* run, the re-planner applies
// the same heuristics to *this* run, live, at quiescent step boundaries —
// the only points where the coordinator owns all mutation, so a table can
// be drained, rebuilt through FactoryFor and atomically swapped without a
// writer in flight (concurrent readers finish against the old store; see
// gamma.DB.Migrate). The decision runs on windowed counters (deltas since
// the last evaluation), so a session serving drifting traffic follows the
// drift instead of being anchored to lifetime aggregates, and sits behind
// hysteresis: a suggestion must win ReplanStreakWins consecutive windows
// over a volume floor before anything moves. (Where a step's firings run
// is not re-planned here: the executor decides that per step, from the
// step's own clock.)

// ReplanStreakWins is the hysteresis width of the adaptive session: a
// suggested store kind must win this many consecutive re-plan windows
// before it is applied, so one unrepresentative window never migrates a
// table back and forth.
const ReplanStreakWins = 2

// MigrationEvent records one live store migration (drain → rebuild →
// atomic swap) performed at a quiescent boundary.
type MigrationEvent struct {
	Step    int64  // RunStats.Steps when the swap happened
	Quiesce int64  // quiescent-boundary ordinal (1-based; 0 = unknown)
	Table   string // migrated table
	From    string // previous store kind spec
	To      string // new store kind spec
	Tuples  int    // tuples drained and re-inserted
	Nanos   int64  // wall time of the drain+rebuild+swap
}

// migrateTable rebuilds s's store as spec and swaps it in, reusing the
// coordinator's merge scratch as the drain buffer. Coordinator-only, at
// quiescent boundaries. On error the table keeps its old store.
func (r *Run) migrateTable(s *tuple.Schema, spec string, quiesce int64) error {
	f, err := gamma.FactoryFor(spec, s)
	if err != nil {
		return err
	}
	from := r.stats.StoreKinds[s.Name]
	start := time.Now()
	scratch, err := r.gammaDB.Migrate(s, f, r.flushBuf[:0])
	moved := len(scratch)
	if scratch != nil {
		clear(scratch)
		r.flushBuf = scratch[:0]
	}
	if err != nil {
		return err
	}
	to := gamma.KindOf(r.gammaDB.Table(s))
	r.stats.StoreKinds[s.Name] = to
	r.stats.Migrations = append(r.stats.Migrations, MigrationEvent{
		Step: r.stats.Steps, Quiesce: quiesce, Table: s.Name,
		From: from, To: to, Tuples: moved, Nanos: time.Since(start).Nanoseconds(),
	})
	return nil
}

// applyMigrate is the explicit (Session.Migrate) entry to migrateTable:
// it refuses tables whose stores the planner may not touch — -noGamma
// stores are never used, and non-replannable backends (dense3d, rolling,
// arrayhash, custom) have parameters a drain cannot reconstruct.
func (r *Run) applyMigrate(s *tuple.Schema, spec string, quiesce int64) error {
	if id := int(s.ID()); id < len(r.noGamma) && r.noGamma[id] {
		return fmt.Errorf("jstar: migrate %s: table is -noGamma, its store is never used", s.Name)
	}
	if cur := r.stats.StoreKinds[s.Name]; !replannable(cur) {
		return fmt.Errorf("jstar: migrate %s: current store %q is not replannable (its parameters encode program knowledge a rebuild would lose)", s.Name, cur)
	}
	return r.migrateTable(s, spec, quiesce)
}

// replanner drives Options.ReplanEvery: windowed counter snapshots,
// suggestion streaks, and the migrations. Owned and called by the session
// coordinator only.
type replanner struct {
	run   *Run
	every int64

	// Window baselines: lifetime counter values at the last evaluation.
	prevTables  map[string]tableCounters
	prevLive    int64
	prevSteps   int64
	prevBatches int64

	// Hysteresis state: per-table suggested-kind streaks.
	kindStreak map[string]kindStreak
}

type kindStreak struct {
	kind string
	n    int
}

func newReplanner(r *Run) *replanner {
	return &replanner{
		run:        r,
		every:      int64(r.opts.ReplanEvery),
		prevTables: make(map[string]tableCounters, len(r.stats.Tables)),
		kindStreak: make(map[string]kindStreak),
	}
}

// tick runs after every quiescent drain; every ReplanEvery-th boundary it
// evaluates the window and applies whatever cleared hysteresis.
func (rp *replanner) tick(quiesce int64) {
	if quiesce%rp.every != 0 {
		return
	}
	rp.evaluate(quiesce)
}

func (rp *replanner) evaluate(quiesce int64) {
	r := rp.run
	rs := &r.stats
	wLive := rs.TotalLive - rp.prevLive
	wSteps := rs.Steps - rp.prevSteps
	wBatches := rs.FireBatches.Load() - rp.prevBatches
	// An idle boundary — a Quiesce wakeup that drained nothing, with no
	// external queries since the last evaluation — carries no workload
	// information: it is not a window, and treating it as one would reset
	// every hysteresis streak between real windows.
	activity := wLive + wSteps
	for _, s := range r.prog.byID {
		win := lifetimeCounters(rs.Tables[s.Name]).sub(rp.prevTables[s.Name])
		activity += win.puts + win.queries
	}
	if activity == 0 {
		return
	}
	rs.Replans++
	// The windowed volume floor counts puts *and* queries: a query-only
	// window (the put-dominated table that drifted into a probe target)
	// is exactly the drift the re-planner exists to catch, and lifetime
	// puts say nothing about it.
	minPuts := int64(planMinPuts)
	if wBatches > 0 && float64(wLive)/float64(wBatches) >= planBatchedChunk {
		minPuts = planBatchedMinPuts
	}
	// Declaration order keeps the migration sequence deterministic.
	for _, s := range r.prog.byID {
		name := s.Name
		st := rs.Tables[name]
		life := lifetimeCounters(st)
		win := life.sub(rp.prevTables[name])
		win.minPrefix = st.winMinPrefix.Swap(0)
		rp.prevTables[name] = life
		if rs.noGamma[name] || !replannable(rs.StoreKinds[name]) {
			continue
		}
		if win.puts+win.queries < minPuts {
			delete(rp.kindStreak, name)
			continue
		}
		want := suggestKind(s, win)
		cur := rs.StoreKinds[name]
		if want == "" || want == cur || servesShape(cur, want) {
			delete(rp.kindStreak, name)
			continue
		}
		ks := rp.kindStreak[name]
		if ks.kind != want {
			rp.kindStreak[name] = kindStreak{kind: want, n: 1}
			continue
		}
		ks.n++
		if ks.n < ReplanStreakWins {
			rp.kindStreak[name] = ks
			continue
		}
		delete(rp.kindStreak, name)
		// A failed rebuild (lossy factory) keeps the old store and the
		// session healthy; the next window may suggest differently.
		_ = r.migrateTable(s, want, quiesce)
	}
	rp.prevLive, rp.prevSteps, rp.prevBatches = rs.TotalLive, rs.Steps, rs.FireBatches.Load()
}

// servesShape reports whether the current backend already serves the
// suggested query shape, making a migration churn without a win: both
// kinds in the point-probe hash family, with the current key depth no
// deeper than the suggested one (every suggested probe still hits the
// keyed path). inthash↔hash flips driven only by the put/query balance of
// one window are exactly the thrash hysteresis exists to prevent.
func servesShape(cur, want string) bool {
	cn, ck := splitHashKind(cur)
	wn, wk := splitHashKind(want)
	return cn != "" && wn != "" && ck >= 1 && ck <= wk
}

// splitHashKind parses "hash:k"/"inthash:k" specs; other kinds return "".
func splitHashKind(spec string) (string, int) {
	name := gamma.KindName(spec)
	if name != "hash" && name != "inthash" {
		return "", 0
	}
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		if k, err := strconv.Atoi(spec[i+1:]); err == nil {
			return name, k
		}
	}
	return "", 0
}
