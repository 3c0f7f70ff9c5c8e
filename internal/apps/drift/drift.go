// Package drift is the adaptive-session workload: a two-phase stream
// whose access pattern changes mid-run, so a store plan frozen at start
// time is wrong for the second half. Phase 1 is put-dominated — sensor
// readings bulk-ingested window after window, with only a trickle of point
// probes. Phase 2 inverts: ingestion stops and the run becomes bursts of
// point probes against the accumulated readings. An adaptive session
// (Options.ReplanEvery > 0) watches the windowed counters drift, migrates
// the Reading table onto a point-probe backend at a quiescent boundary,
// and serves phase 2 from an O(1) keyed path; a frozen session keeps
// whatever the strategy default was. The package's tests run both and
// compare them (TestAdaptiveMatchesFrozen, TestAdaptiveConverges); Result
// carries each run's per-window latencies. This is the paper's
// profile-guided storage-selection loop (§1.5) closed at runtime instead
// of across runs.
package drift

import (
	"context"
	"fmt"
	"time"

	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/rng"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// RunOpts configure one drift run.
type RunOpts struct {
	Keys            int // distinct reading keys ingested per phase-1 window
	IngestWindows   int // phase-1 windows (put-dominated)
	ProbeWindows    int // phase-2 windows (point-query-dominated)
	ProbesPerWindow int // point probes per phase-2 window
	// ReplanEvery is forwarded to core.Options: 0 runs the frozen
	// baseline, >0 re-plans every that-many quiescent boundaries.
	ReplanEvery int
	Strategy    exec.Strategy
	Threads     int
	Seed        uint64
}

func (o *RunOpts) defaults() {
	if o.Keys <= 0 {
		o.Keys = 20000
	}
	if o.IngestWindows <= 0 {
		o.IngestWindows = 4
	}
	if o.ProbeWindows <= 0 {
		o.ProbeWindows = 6
	}
	if o.ProbesPerWindow <= 0 {
		o.ProbesPerWindow = 4000
	}
}

// Result carries the run's correctness digest and per-window timings.
type Result struct {
	Answers  int   // total Answer tuples (one per probe)
	Checksum int64 // order-independent digest over the Answer relation

	// Per-window wall times: a window is one PutBatch + Quiesce.
	IngestNanos []int64 // phase 1
	ProbeNanos  []int64 // phase 2

	// KindAfterIngest is the store kind backing Reading at the phase
	// boundary — the convergence gate: an adaptive session must have
	// followed the probe trickle onto a point-probe backend before the
	// probe bursts start.
	KindAfterIngest string
	ReadingKind     string // final store kind backing Reading
	Stats           *core.RunStats
}

// Run executes the drifting workload on a session. The program:
//
//	table Reading(int key, int val)    // bulk-ingested sensor state
//	table Probe(int id, int key)       // point lookups, distinct ids
//	table Answer(int id, int key, int val)
//	rule on Probe: forall Reading(key, v) put Answer(id, key, v)
//
// Each phase-1 window ingests Keys fresh readings plus Keys/64 trickle
// probes (the live traffic that tells the windowed planner the table is
// point-probed); each phase-2 window is ProbesPerWindow probes over the
// full key range. Probe ids are globally unique so every probe contributes
// exactly one Answer and runs of any configuration are comparable by
// Checksum.
func Run(opts RunOpts) (*Result, error) {
	opts.defaults()
	p := core.NewProgram()
	rd := p.Table("Reading",
		[]tuple.Column{
			{Name: "key", Kind: tuple.KindInt},
			{Name: "val", Kind: tuple.KindInt},
		},
		[]tuple.OrderEntry{tuple.Lit("Reading")})
	pr := p.Table("Probe",
		[]tuple.Column{
			{Name: "id", Kind: tuple.KindInt},
			{Name: "key", Kind: tuple.KindInt},
		},
		[]tuple.OrderEntry{tuple.Lit("Probe")})
	an := p.Table("Answer",
		[]tuple.Column{
			{Name: "id", Kind: tuple.KindInt},
			{Name: "key", Kind: tuple.KindInt},
			{Name: "val", Kind: tuple.KindInt},
		},
		[]tuple.OrderEntry{tuple.Lit("Answer")})
	p.Order("Reading", "Probe", "Answer")
	p.Rule("probe", pr, func(c *core.Ctx, t *tuple.Tuple) {
		c.ForEach(rd, gamma.Query{Prefix: []tuple.Value{t.Field(1)}},
			func(r *tuple.Tuple) bool {
				c.PutNew(an, t.Field(0), r.Field(0), r.Field(1))
				return false
			})
	})

	s, err := p.Start(context.Background(), core.Options{
		Strategy:    opts.Strategy,
		Threads:     opts.Threads,
		ReplanEvery: opts.ReplanEvery,
		Quiet:       true,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()

	res := &Result{}
	r := rng.New(opts.Seed)
	probeID := int64(0)
	window := func(batch []*tuple.Tuple) (int64, error) {
		start := time.Now()
		if err := s.PutBatch(batch...); err != nil {
			return 0, err
		}
		if err := s.Quiesce(context.Background()); err != nil {
			return 0, err
		}
		return time.Since(start).Nanoseconds(), nil
	}

	// Phase 1: put-dominated ingest with a probe trickle. The probes are
	// interleaved (one per 64 readings) rather than appended, so any
	// absorption chunk of the window — the ingress ring hands a large
	// batch to the coordinator in ring-sized slices, each a quiescent
	// boundary of its own — carries the same put-dominated-but-point-probed
	// shape the whole window has. Each probe targets a key strictly
	// earlier in the stream, so it can never be absorbed ahead of its
	// reading.
	for w := 0; w < opts.IngestWindows; w++ {
		batch := make([]*tuple.Tuple, 0, opts.Keys+opts.Keys/64)
		base := int64(w * opts.Keys)
		for i := 0; i < opts.Keys; i++ {
			k := base + int64(i)
			batch = append(batch, tuple.New(rd, tuple.Int(k), tuple.Int(7*k+3)))
			if i%64 == 63 {
				batch = append(batch, tuple.New(pr,
					tuple.Int(probeID), tuple.Int(r.Int63n(k+1))))
				probeID++
			}
		}
		ns, err := window(batch)
		if err != nil {
			return nil, err
		}
		res.IngestNanos = append(res.IngestNanos, ns)
	}
	res.KindAfterIngest = s.Stats().StoreKinds["Reading"]

	// Phase 2: probe bursts over the full ingested range.
	total := int64(opts.IngestWindows * opts.Keys)
	for w := 0; w < opts.ProbeWindows; w++ {
		batch := make([]*tuple.Tuple, 0, opts.ProbesPerWindow)
		for i := 0; i < opts.ProbesPerWindow; i++ {
			batch = append(batch, tuple.New(pr, tuple.Int(probeID), tuple.Int(r.Int63n(total))))
			probeID++
		}
		ns, err := window(batch)
		if err != nil {
			return nil, err
		}
		res.ProbeNanos = append(res.ProbeNanos, ns)
	}

	for _, t := range s.Snapshot(an) {
		res.Answers++
		res.Checksum += 31*t.Int("id") + 7*t.Int("key") + t.Int("val")
	}
	if want := int(probeID); res.Answers != want {
		return nil, fmt.Errorf("drift: %d answers for %d probes", res.Answers, want)
	}
	res.Stats = s.Stats()
	res.ReadingKind = res.Stats.StoreKinds["Reading"]
	if err := s.Close(); err != nil {
		return nil, err
	}
	return res, nil
}
