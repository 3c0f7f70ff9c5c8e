package core

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// probeProgram is the drifting-workload shape in miniature: Reading(key,
// val) is ingested in bulk, Probe(id, key) point-queries it (prefix depth
// 1) and records Answer(id, key, val). Probes carry distinct ids so every
// probe yields exactly one Answer tuple.
func probeProgram() (*Program, *tuple.Schema, *tuple.Schema, *tuple.Schema) {
	p := NewProgram()
	rd := p.Table("Reading",
		[]tuple.Column{{Name: "key", Kind: tuple.KindInt}, {Name: "val", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Reading")})
	pr := p.Table("Probe",
		[]tuple.Column{{Name: "id", Kind: tuple.KindInt}, {Name: "key", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Probe")})
	an := p.Table("Answer",
		[]tuple.Column{
			{Name: "id", Kind: tuple.KindInt},
			{Name: "key", Kind: tuple.KindInt},
			{Name: "val", Kind: tuple.KindInt},
		},
		[]tuple.OrderEntry{tuple.Lit("Answer")})
	p.Order("Reading", "Probe", "Answer")
	p.Rule("probe", pr, func(c *Ctx, t *tuple.Tuple) {
		c.ForEach(rd, gamma.Query{Prefix: []tuple.Value{t.Field(1)}}, func(r *tuple.Tuple) bool {
			c.PutNew(an, t.Field(0), r.Field(0), r.Field(1))
			return false
		})
	})
	return p, rd, pr, an
}

func readingTuple(rd *tuple.Schema, key int) *tuple.Tuple {
	return tuple.New(rd, tuple.Int(int64(key)), tuple.Int(int64(7*key+3)))
}

func sortedByFields(ts []*tuple.Tuple) []*tuple.Tuple {
	out := slices.Clone(ts)
	slices.SortFunc(out, func(a, b *tuple.Tuple) int { return a.CompareFields(b) })
	return out
}

func assertSameTuples(t *testing.T, label string, got, want []*tuple.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].CompareFields(want[i]) != 0 {
			t.Fatalf("%s: tuple %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// runProbeSession drives the probe workload: bulk readings, quiesce,
// optionally migrate Reading to migrateTo, probe burst, quiesce. It
// returns the canonically sorted Reading and Answer snapshots.
func runProbeSession(t *testing.T, strat exec.Strategy, migrateTo string) (rds, ans []*tuple.Tuple) {
	t.Helper()
	p, rd, pr, an := probeProgram()
	ctx := context.Background()
	s, err := p.Start(ctx, Options{Strategy: strat, Threads: 4, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const keys, probes = 300, 150
	batch := make([]*tuple.Tuple, 0, keys)
	for i := 0; i < keys; i++ {
		batch = append(batch, readingTuple(rd, i))
	}
	if err := s.PutBatch(batch...); err != nil {
		t.Fatal(err)
	}
	if err := s.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if migrateTo != "" {
		if err := s.Migrate("Reading", migrateTo); err != nil {
			t.Fatalf("Migrate(Reading, %s): %v", migrateTo, err)
		}
		if got := gamma.KindOf(s.Run().Gamma().Table(rd)); got != migrateTo {
			t.Fatalf("store kind after Migrate = %s, want %s", got, migrateTo)
		}
	}
	batch = batch[:0]
	for i := 0; i < probes; i++ {
		batch = append(batch, tuple.New(pr, tuple.Int(int64(i)), tuple.Int(int64((i*17)%keys))))
	}
	if err := s.PutBatch(batch...); err != nil {
		t.Fatal(err)
	}
	if err := s.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	rds = sortedByFields(s.Snapshot(rd))
	ans = sortedByFields(s.Snapshot(an))
	if len(ans) != probes {
		t.Fatalf("answers = %d, want %d", len(ans), probes)
	}
	return rds, ans
}

// TestSessionMigrateParity is the migration parity suite: for every
// compatible (store kind × strategy) pair, migrate mid-run and assert the
// quiesced snapshots are identical to the no-migration run's. The CI race
// suite runs this under -race.
func TestSessionMigrateParity(t *testing.T) {
	kinds := []string{"tree", "skip", "hash:1", "hash:2", "inthash:1", "inthash:2", "columnar"}
	for _, strat := range []exec.Strategy{exec.Sequential, exec.ForkJoin, exec.Auto} {
		t.Run(strat.String(), func(t *testing.T) {
			wantRd, wantAn := runProbeSession(t, strat, "")
			for _, kind := range kinds {
				t.Run(kind, func(t *testing.T) {
					rds, ans := runProbeSession(t, strat, kind)
					assertSameTuples(t, "Reading snapshot", rds, wantRd)
					assertSameTuples(t, "Answer snapshot", ans, wantAn)
				})
			}
		})
	}
}

// TestSessionMigrateValidation covers the refusal paths: unknown tables,
// invalid specs, non-replannable current backends, -noGamma tables, and
// terminal sessions.
func TestSessionMigrateValidation(t *testing.T) {
	p, rd, _, _ := probeProgram()
	p.GammaHint("Answer", gamma.NewArrayOfHashSets(0, 0, 1<<20))
	ctx := context.Background()
	s, err := p.Start(ctx, Options{Strategy: exec.Sequential, Quiet: true, NoGamma: []string{"Probe"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch(readingTuple(rd, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Migrate("Nope", "tree"); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Errorf("unknown table: err = %v", err)
	}
	if err := s.Migrate("Reading", "hash:9"); err == nil {
		t.Error("out-of-range key depth must be rejected")
	}
	for _, spec := range []string{"skip@1", "@2"} {
		if err := s.Migrate("Reading", spec); err == nil || !strings.Contains(err.Error(), "unknown store kind") {
			t.Errorf("Migrate(Reading, %q) = %v, want the unknown-kind error", spec, err)
		}
	}
	if err := s.Migrate("Answer", "tree"); err == nil || !strings.Contains(err.Error(), "not replannable") {
		t.Errorf("non-replannable backend: err = %v", err)
	}
	if err := s.Migrate("Probe", "tree"); err == nil || !strings.Contains(err.Error(), "noGamma") {
		t.Errorf("noGamma table: err = %v", err)
	}
	if err := s.Migrate("Reading", "skip"); err != nil {
		t.Errorf("legal migration failed: %v", err)
	}
	s.Close()
	if err := s.Migrate("Reading", "tree"); err == nil {
		t.Error("Migrate after Close must fail")
	}
}

// putQuiesce publishes one batch and waits for quiescence.
func putQuiesce(t *testing.T, s *Session, ts []*tuple.Tuple) {
	t.Helper()
	if err := s.PutBatch(ts...); err != nil {
		t.Fatal(err)
	}
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSessionReplanConverges drives an adaptive session through put+probe
// windows and expects Reading to migrate onto a point-probe backend. Left
// alone, the coordinator splits one external batch across as many quiescent
// boundaries as it manages to reach while the producer is still publishing
// — under the race detector, a hundred windows all below the planner's
// volume floor — so the test holds the coordinator inside a Gate tuple's
// action while it publishes each batch: one batch, one absorb, one window.
// (The per-window hysteresis semantics are pinned by
// TestReplannerHysteresis below, which drives the replanner directly.)
func TestSessionReplanConverges(t *testing.T) {
	p, rd, pr, _ := probeProgram()
	gate := p.Table("Gate", []tuple.Column{{Name: "n", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Gate")})
	p.Order("Gate", "Reading")
	entered, release := make(chan struct{}), make(chan struct{})
	p.Action(gate, func(*Run, *tuple.Tuple) {
		entered <- struct{}{}
		<-release
	})
	ctx := context.Background()
	s, err := p.Start(ctx, Options{Strategy: exec.Sequential, ReplanEvery: 1, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const keys = 400 // with its probes a batch fits the 1024-slot ingress
	probeID := int64(0)
	for w := 0; w < 6; w++ {
		batch := make([]*tuple.Tuple, 0, keys+keys/16)
		for i := 0; i < keys; i++ {
			k := w*keys + i
			batch = append(batch, readingTuple(rd, k))
			// Interleave point probes against earlier keys so the window
			// carries the put-dominated-probed shape.
			if i%16 == 15 {
				batch = append(batch, tuple.New(pr, tuple.Int(probeID), tuple.Int(int64(k/2))))
				probeID++
			}
		}
		if err := s.Put(tuple.New(gate, tuple.Int(int64(w)))); err != nil {
			t.Fatal(err)
		}
		<-entered
		if err := s.PutBatch(batch...); err != nil {
			t.Fatal(err)
		}
		release <- struct{}{}
		if err := s.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	var reading []MigrationEvent
	for _, m := range st.Migrations {
		if m.Table == "Reading" {
			reading = append(reading, m)
		}
	}
	if len(reading) == 0 {
		t.Fatalf("Reading never migrated (replans=%d, events=%+v)", st.Replans, st.Migrations)
	}
	if reading[0].From != "tree" {
		t.Fatalf("first migration not from the sequential default: %+v", reading[0])
	}
	if got := st.StoreKinds["Reading"]; gamma.KindName(got) != "inthash" && gamma.KindName(got) != "hash" {
		t.Fatalf("StoreKinds[Reading] = %q, want a point-probe kind", got)
	}
	if st.Replans == 0 {
		t.Fatal("no replan windows evaluated")
	}
	// The saved plan replays the end state.
	if got := st.SuggestStorePlan()["Reading"]; gamma.KindName(got) != "inthash" && gamma.KindName(got) != "hash" {
		t.Fatalf("suggested plan for Reading = %q, want a point-probe kind", got)
	}
}

// replanWindow bumps Reading's counters as one synthetic re-plan window
// and evaluates — the deterministic harness for hysteresis semantics.
func replanWindow(r *Run, rp *replanner, q int64, puts, probes int64) {
	st := r.stats.Tables["Reading"]
	st.Puts.Add(puts)
	st.Queries.Add(probes)
	st.IndexedQueries.Add(probes)
	if probes > 0 {
		casMin(&st.MinPrefixLen, 1)
		casMin(&st.winMinPrefix, 1)
	}
	r.stats.TotalLive += puts + probes
	r.stats.Steps++
	rp.evaluate(q)
}

// TestReplannerHysteresis drives the replanner directly with synthetic
// windows: no migration after one winning window, migration after
// ReplanStreakWins, no lateral hash-family churn once the backend serves
// the probe shape, and idle boundaries neither counting nor resetting.
func TestReplannerHysteresis(t *testing.T) {
	p, _, _, _ := probeProgram()
	r, err := p.NewRun(Options{Strategy: exec.Sequential, Threads: 1, ReplanEvery: 1, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.finish(time.Now())
	rp := newReplanner(r)
	rs := &r.stats

	// Window 1: put-dominated, point-probed, all-int — the heuristic wants
	// inthash:1, but one window must not migrate.
	replanWindow(r, rp, 1, 400, 50)
	if len(rs.Migrations) != 0 {
		t.Fatalf("migrated after one window (hysteresis broken): %+v", rs.Migrations)
	}
	if rs.Replans != 1 {
		t.Fatalf("Replans = %d, want 1", rs.Replans)
	}

	// An idle boundary between windows is not a window: it neither counts
	// as a replan nor resets the suggestion streak.
	rp.evaluate(2)
	if rs.Replans != 1 {
		t.Fatalf("idle boundary counted as a window: Replans = %d", rs.Replans)
	}

	// Window 2: same shape — the streak reaches ReplanStreakWins, Reading
	// migrates from the sequential default (tree) to inthash:1.
	replanWindow(r, rp, 3, 400, 50)
	if n := len(rs.Migrations); n != 1 {
		t.Fatalf("migrations after two windows = %d, want 1 (%+v)", n, rs.Migrations)
	}
	m := rs.Migrations[0]
	if m.Table != "Reading" || m.From != "tree" || m.To != "inthash:1" || m.Quiesce != 3 {
		t.Fatalf("migration event = %+v", m)
	}
	if got := rs.StoreKinds["Reading"]; got != "inthash:1" {
		t.Fatalf("StoreKinds[Reading] = %s, want inthash:1 (must record the final kind)", got)
	}

	// Probe-only windows: the heuristic now says hash:1 (no puts), but
	// inthash:1 already serves depth-1 point probes — servesShape must
	// suppress the lateral migration.
	replanWindow(r, rp, 4, 0, 400)
	replanWindow(r, rp, 5, 0, 400)
	if n := len(rs.Migrations); n != 1 {
		t.Fatalf("lateral hash-family migration happened: %+v", rs.Migrations)
	}
}

// TestReplanVolumeFloor: windows below the volume floor never migrate,
// however many there are, and never build a streak.
func TestReplanVolumeFloor(t *testing.T) {
	p, _, _, _ := probeProgram()
	r, err := p.NewRun(Options{Strategy: exec.Sequential, Threads: 1, ReplanEvery: 1, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.finish(time.Now())
	rp := newReplanner(r)
	for q := int64(1); q <= 5; q++ {
		replanWindow(r, rp, q, 20, 5)
	}
	if len(r.stats.Migrations) != 0 {
		t.Fatalf("sub-floor windows migrated: %+v", r.stats.Migrations)
	}
	if r.stats.Replans != 5 {
		t.Fatalf("Replans = %d, want 5", r.stats.Replans)
	}
}

// TestPlanReplaysMigratedKind: a migrated table the lifetime heuristics
// have no opinion about (sub-floor volume) still lands in the suggested
// plan with its final kind — saved plans replay the end state.
func TestPlanReplaysMigratedKind(t *testing.T) {
	p, rd, _, _ := probeProgram()
	ctx := context.Background()
	s, err := p.Start(ctx, Options{Strategy: exec.Sequential, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	putQuiesce(t, s, []*tuple.Tuple{readingTuple(rd, 1), readingTuple(rd, 2)})
	if err := s.Migrate("Reading", "columnar"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if got := st.StoreKinds["Reading"]; got != "columnar" {
		t.Fatalf("StoreKinds[Reading] = %s, want columnar", got)
	}
	plan := st.SuggestStorePlan()
	if got := plan["Reading"]; got != "columnar" {
		t.Fatalf("suggested plan for Reading = %q, want columnar (migration end state)", got)
	}
}

// TestValidateReplanEvery: a negative ReplanEvery is a configuration
// error, reported with the legal values.
func TestValidateReplanEvery(t *testing.T) {
	p, _, _, _ := probeProgram()
	err := p.Validate(Options{ReplanEvery: -1})
	if err == nil || !strings.Contains(err.Error(), "ReplanEvery") {
		t.Fatalf("Validate(ReplanEvery: -1) = %v", err)
	}
	if err := p.Validate(Options{ReplanEvery: 4}); err != nil {
		t.Fatalf("Validate(ReplanEvery: 4) = %v", err)
	}
}
