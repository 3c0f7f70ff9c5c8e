package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/delta"
	"github.com/jstar-lang/jstar/internal/disruptor"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/lang"
	"github.com/jstar-lang/jstar/internal/tuple"
	"github.com/jstar-lang/jstar/internal/wal"
)

// probeBudget bounds each standalone probe loop: the rows are per-tuple
// costs, so a loop may stop early without changing what it reports.
const probeBudget = 300 * time.Millisecond

func perItem(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// probeLayers replays the finished run's hottest stored table into
// standalone layer objects — a fresh Gamma store of the kind the run
// chose, a sequential Delta tree over the program's orders, an ingress
// ring, the tuple constructor — and times each alone.
func probeLayers(e *env, res *result, run *core.Run) {
	m := res.metrics
	sp := e.tr.begin("probe", -1, 0)
	defer e.tr.end(sp)

	t0 := time.Now()
	if _, err := lang.CompileSource(fanoutSource); err == nil {
		m["lang.compile_ms"] = millis(time.Since(t0))
	}

	name, sch := hottestTable(run)
	if sch == nil {
		return
	}
	st := run.Gamma().Table(sch)
	stats := run.Stats()

	s := e.tr.begin("gamma.dump", sp, 0)
	t0 = time.Now()
	rows := gamma.Dump(st)
	m["gamma.dump_ns_per_tuple"] = perItem(time.Since(t0), len(rows))
	e.tr.end(s)
	if len(rows) > e.sz.ProbeCap {
		rows = rows[:e.sz.ProbeCap]
	}

	if f, err := gamma.FactoryFor(stats.StoreKinds[name], sch); err == nil && f != nil {
		fresh := f(sch)
		s = e.tr.begin("gamma.insert", sp, 0)
		t0 = time.Now()
		gamma.InsertBatch(fresh, rows, nil)
		m["gamma.insert_ns_per_tuple"] = perItem(time.Since(t0), len(rows))
		e.tr.end(s)

		// Queries take the shape the run's own queries had: the shortest
		// equality prefix it ever probed this table with, else the primary
		// key (a rule body reading the store directly does point reads),
		// else the first column.
		k := max(1, len(sch.KeyColumns()))
		if ts := stats.Tables[name]; ts != nil && ts.MinPrefixLen.Load() > 0 {
			k = int(ts.MinPrefixLen.Load())
		}
		k = min(k, sch.Arity())
		rng := rand.New(rand.NewSource(int64(e.seed)))
		s = e.tr.begin("gamma.select", sp, 0)
		t0 = time.Now()
		n := 0
		for ; n < 20_000 && time.Since(t0) < probeBudget; n++ {
			row := rows[rng.Intn(len(rows))]
			prefix := make([]tuple.Value, k)
			for c := range prefix {
				prefix[c] = row.Field(c)
			}
			fresh.Select(gamma.Query{Prefix: prefix}, func(*tuple.Tuple) bool { return true })
		}
		m["gamma.select_ns_per_query"] = perItem(time.Since(t0), n)
		e.tr.end(s)
	}

	sorted := slices.Clone(rows)
	slices.SortFunc(sorted, tuple.ComparePath)
	tr := delta.NewSequential(run.Program().PartialOrder())
	s = e.tr.begin("delta.putsorted", sp, 0)
	t0 = time.Now()
	tr.PutSorted(sorted, nil)
	m["delta.putsorted_ns_per_tuple"] = perItem(time.Since(t0), len(sorted))
	e.tr.end(s)
	s = e.tr.begin("delta.takemin", sp, 0)
	t0 = time.Now()
	taken := 0
	for b := tr.TakeMinBatch(); b != nil; b = tr.TakeMinBatch() {
		taken += len(b)
	}
	m["delta.takemin_ns_per_tuple"] = perItem(time.Since(t0), taken)
	e.tr.end(s)
	shuffled := slices.Clone(rows)
	rand.New(rand.NewSource(int64(e.seed))).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	tr = delta.NewSequential(run.Program().PartialOrder())
	s = e.tr.begin("delta.putbatch", sp, 0)
	t0 = time.Now()
	tr.PutBatch(shuffled, nil)
	m["delta.putbatch_ns_per_tuple"] = perItem(time.Since(t0), len(shuffled))
	e.tr.end(s)

	s = e.tr.begin("tuple.new", sp, 0)
	fields := make([][]tuple.Value, min(len(rows), 100_000))
	for i := range fields {
		fields[i] = make([]tuple.Value, sch.Arity())
		for c := range fields[i] {
			fields[i][c] = rows[i].Field(c)
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	for _, f := range fields {
		tupleSink = tuple.New(sch, f...)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	m["tuple.new_ns"] = perItem(d, len(fields))
	m["tuple.new_allocs"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(len(fields)))
	e.tr.end(s)

	s = e.tr.begin("disruptor.publish", sp, 0)
	m["disruptor.publish_ns_per_event"] = probeRing(rows)
	e.tr.end(s)
}

var tupleSink *tuple.Tuple

// hottestTable picks the table with the most puts among those the run
// actually stored (a -noGamma table has nothing to replay).
func hottestTable(run *core.Run) (string, *tuple.Schema) {
	var (
		best    string
		bestSch *tuple.Schema
		puts    int64 = -1
	)
	for name, ts := range run.Stats().Tables {
		sch := run.Program().Schema(name)
		if sch == nil || run.Gamma().Table(sch).Len() == 0 {
			continue
		}
		if p := ts.Puts.Load(); p > puts || (p == puts && name < best) {
			best, bestSch, puts = name, sch, p
		}
	}
	return best, bestSch
}

// probeRing publishes the rows through a one-lane ingress ring of the
// session's default size with one producer and one polling consumer, and
// returns nanoseconds per event.
func probeRing(rows []*tuple.Tuple) float64 {
	if len(rows) == 0 {
		return 0
	}
	ring := disruptor.NewShardedRing[*tuple.Tuple](1, 1024,
		func() disruptor.WaitStrategy { return &disruptor.BlockingWait{} })
	var wg sync.WaitGroup
	wg.Add(1)
	t0 := time.Now()
	go func() {
		defer wg.Done()
		for seen := 0; seen < len(rows); {
			n := ring.Poll(0, func(int64, **tuple.Tuple) bool { return true })
			if n == 0 {
				runtime.Gosched()
			}
			seen += n
		}
	}()
	for _, t := range rows {
		ring.Publish(func(slot **tuple.Tuple) { *slot = t })
	}
	wg.Wait()
	return perItem(time.Since(t0), len(rows))
}

// sessionProbe is what one in-process replay of a service workload's
// events showed about core.Session.
type sessionProbe struct {
	seconds    float64
	putNs      int64
	quiesceUs  []float64
	backlogMax int64
	run        *core.Run
}

// replaySession feeds events into an in-process Session in the shape the
// workload's server sees them — paced: one goroutine, PutBatch then
// Quiesce per batch; saturate: both producers back to back, one Quiesce —
// with PhaseStats on. dur, when set, makes the session durable.
func replaySession(ctx context.Context, events, rows int, paced bool, dur *core.DurabilityOptions) (*sessionProbe, error) {
	prog, err := lang.CompileSource(fanoutSource)
	if err != nil {
		return nil, err
	}
	ev := prog.Schema("Event")
	batches := make([][]*tuple.Tuple, events/rows)
	for b := range batches {
		batches[b] = make([]*tuple.Tuple, rows)
		for i := range batches[b] {
			batches[b][i] = tuple.New(ev, tuple.Int(int64(b*rows+i)))
		}
	}
	sess, err := prog.Start(ctx, core.Options{Quiet: true, PhaseStats: true, Durability: dur})
	if err != nil {
		return nil, err
	}
	p := &sessionProbe{run: sess.Run()}
	var (
		putNs, backlog atomic.Int64
		firstErr       atomic.Value
	)
	quiesce := func() {
		t0 := time.Now()
		if err := sess.Quiesce(ctx); err != nil {
			firstErr.CompareAndSwap(nil, err)
		}
		p.quiesceUs = append(p.quiesceUs, micros(time.Since(t0)))
	}
	produce := func(from, step int, each func()) {
		for b := from; b < len(batches); b += step {
			t0 := time.Now()
			if err := sess.PutBatch(batches[b]...); err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			putNs.Add(time.Since(t0).Nanoseconds())
			if pending, _ := sess.IngressBacklog(); pending > backlog.Load() {
				backlog.Store(pending) // a gauge sampled by racing producers: near enough
			}
			each()
		}
	}
	t0 := time.Now()
	if paced {
		produce(0, 1, quiesce)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				produce(c, clients, func() {})
			}(c)
		}
		wg.Wait()
		quiesce()
	}
	p.seconds = time.Since(t0).Seconds()
	p.putNs, p.backlogMax = putNs.Load(), backlog.Load()
	if err := sess.Close(); err != nil {
		return nil, err
	}
	if err, _ := firstErr.Load().(error); err != nil {
		return nil, err
	}
	return p, nil
}

// probeService takes the service workloads' per-layer rows that need
// direct access to a layer: core.Session in-process with and without the
// log, a standalone wal.Log, the JSON codec, and the Gamma / Delta / ring /
// tuple probes over the replayed session's tables.
func probeService(ctx context.Context, e *env, res *result, rows int, paced bool) error {
	m := res.metrics
	sp := e.tr.begin("probe.session", -1, 0)
	events := min(e.sz.ProbeCap, e.sz.SatEvents) / rows * rows
	off, err := replaySession(ctx, events, rows, paced, nil)
	if err != nil {
		return fmt.Errorf("session replay: %w", err)
	}
	dir, err := scratchDir(e)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	on, err := replaySession(ctx, events, rows, paced, &core.DurabilityOptions{Dir: dir, Identity: tenantName})
	if err != nil {
		return fmt.Errorf("durable session replay: %w", err)
	}
	e.tr.end(sp)
	m["wal.on_over_off"] = ratio(off.seconds, on.seconds)
	m["core.putbatch_ns_per_event"] = ratio(float64(off.putNs), float64(events))
	m["core.quiesce_us"] = median(off.quiesceUs)
	m["core.ingress_backlog_max"] = float64(off.backlogMax)
	st := off.run.Stats()
	var most, sum int64
	for _, n := range st.ShardAbsorbed {
		most, sum = max(most, n), sum+n
	}
	m["core.absorb_skew"] = ratio(float64(most)*float64(len(st.ShardAbsorbed)), float64(sum))
	var ph phaseSums
	ph.add(st)
	ph.into(m)

	if err := probeLog(e, m, events, rows); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	if err := probeJSON(ctx, e, m, rows); err != nil {
		return fmt.Errorf("json probe: %w", err)
	}
	probeLayers(e, res, off.run)
	return nil
}

// probeLog drives a standalone wal.Log with the default flush policy:
// Append alone, then Append + explicit Flush, then a reopen that has to
// read everything back.
func probeLog(e *env, m map[string]float64, events, rows int) error {
	prog, err := lang.CompileSource(fanoutSource)
	if err != nil {
		return err
	}
	ev := prog.Schema("Event")
	dir, err := scratchDir(e)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := wal.Options{FS: wal.DirFS(dir), Identity: tenantName, Resolve: prog.Schema}
	log, _, err := wal.Open(opts)
	if err != nil {
		return err
	}
	batch := make([]*tuple.Tuple, rows)
	next := int64(0)
	fill := func() {
		for i := range batch {
			batch[i] = tuple.New(ev, tuple.Int(next))
			next++
		}
	}
	sp := e.tr.begin("wal.append", -1, 0)
	var appendNs time.Duration
	for n := 0; n < events; n += rows {
		fill()
		t0 := time.Now()
		if err := log.Append(batch); err != nil {
			return err
		}
		appendNs += time.Since(t0)
	}
	e.tr.end(sp)
	m["wal.append_ns_per_event"] = perItem(appendNs, events)
	sp = e.tr.begin("wal.flush", -1, 0)
	var flushMs []float64
	for i := 0; i < 30; i++ {
		fill()
		if err := log.Append(batch); err != nil {
			return err
		}
		t0 := time.Now()
		if err := log.Flush(); err != nil {
			return err
		}
		flushMs = append(flushMs, millis(time.Since(t0)))
	}
	e.tr.end(sp)
	m["wal.flush_ms_p50"] = median(flushMs)
	if err := log.Close(); err != nil {
		return err
	}
	sp = e.tr.begin("wal.open", -1, 0)
	t0 := time.Now()
	log, rec, err := wal.Open(opts)
	m["wal.open_recover_ms"] = millis(time.Since(t0))
	e.tr.end(sp)
	if err != nil {
		return err
	}
	if len(rec.Tail) != int(next) {
		return fmt.Errorf("reopened log replays %d tuples, appended %d", len(rec.Tail), next)
	}
	return log.Close()
}

// probeJSON sends the same row count per put through the JSON codec to a
// fresh server, whose put quantile is then the JSON path's alone.
func probeJSON(ctx context.Context, e *env, m map[string]float64, rows int) error {
	st, err := setUp(ctx, e, rows*clients, rows, "")
	if err != nil {
		return err
	}
	defer st.remove()
	defer st.close()
	sp := e.tr.begin("serve.json_put", -1, 0)
	defer e.tr.end(sp)
	for p := 0; p < 50; p++ {
		batch := make([][]any, rows)
		for i := range batch {
			batch[i] = []any{-int64(p*rows+i) - 1}
		}
		if err := retryRefused(ctx, func() error { return st.admin.PutJSON(ctx, tenantName, "Event", batch) }); err != nil {
			return err
		}
	}
	s, err := scrape(ctx, st.admin)
	if err != nil {
		return err
	}
	m["serve.json_put_server_p50_us"] = s[`jstar_serve_request_nanos{op="put",quantile="0.5"}`] / 1e3
	return nil
}
