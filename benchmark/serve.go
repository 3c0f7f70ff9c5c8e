package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/lang"
	"github.com/jstar-lang/jstar/internal/serve"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// fanoutSource is the tenant both service workloads host: one rule, so
// ingest, the step boundary, the WAL and the request path dominate, not
// rule bodies.
const fanoutSource = `
table Event(int n) orderby (Event)
table Out(int n, int v) orderby (Out)
order Event < Out

foreach (Event e) {
  put new Out(e.n, e.n * 2)
}
`

const tenantName = "bench"

// service is an in-process serve.Server behind a real loopback listener:
// every request crosses the kernel's TCP stack and net/http on both sides.
type service struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{srv: serve.New(serve.Config{}), base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // always ErrServerClosed: stop is the only way out
	}()
	return s, nil
}

// stop closes the listener and every connection, waits for Serve to
// return, then shuts the tenants down (flushing their logs).
func (s *service) stop() {
	_ = s.hs.Close() // in-flight requests are ours and already finished
	<-s.done
	s.srv.Close()
}

// newClient gives each generator goroutine its own single connection.
func newClient(base string) *serve.Client {
	c := serve.NewClient(base)
	c.HTTP = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return c
}

func closeClient(c *serve.Client) { c.HTTP.CloseIdleConnections() }

// tenantInfo is the part of the info document the gate reads.
type tenantInfo struct {
	WAL *struct {
		Appended      uint64 `json:"appended"`
		Bytes         int64  `json:"bytes"`
		GroupCommits  int64  `json:"group_commits"`
		CheckpointSeq uint64 `json:"checkpoint_seq"`
	} `json:"wal"`
	Recovery *struct {
		CheckpointSeq    uint64
		CheckpointTuples int
		Replayed         int
	} `json:"recovery"`
}

func decodeInfo(doc map[string]any) (tenantInfo, error) {
	var info tenantInfo
	raw, err := json.Marshal(doc)
	if err != nil {
		return info, err
	}
	return info, json.Unmarshal(raw, &info)
}

// get fetches an endpoint serve.Client has no method for.
func get(ctx context.Context, c *serve.Client, path string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: http %d", path, resp.StatusCode)
	}
	return resp.Body, nil
}

func getInfo(ctx context.Context, c *serve.Client) (tenantInfo, error) {
	var info tenantInfo
	body, err := get(ctx, c, "/v1/tenants/"+tenantName)
	if err != nil {
		return info, err
	}
	defer body.Close()
	return info, json.NewDecoder(body).Decode(&info)
}

// scrape reads /metrics into a map keyed by the full series text, labels
// included, exactly as the server prints it.
func scrape(ctx context.Context, c *serve.Client) (map[string]float64, error) {
	body, err := get(ctx, c, "/metrics")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, sc.Err()
}

// serverRows turns a scrape into the server-side serve rows: where inside
// the handler a request's time went, which the client cannot see.
func serverRows(m map[string]float64, s map[string]float64, putRTTus float64) {
	put := s[`jstar_serve_request_nanos{op="put",quantile="0.5"}`] / 1e3
	enq := s[`jstar_serve_enqueue_nanos{quantile="0.5"}`] / 1e3
	m["serve.put_server_p50_us"] = put
	m["serve.put_enqueue_p50_us"] = enq
	m["serve.codec_us"] = put - enq
	m["serve.http_us"] = putRTTus - put
	m["serve.quiesce_wait_p50_us"] = s[`jstar_serve_quiesce_nanos{quantile="0.5"}`] / 1e3
	m["serve.refused_429"] = s[`jstar_serve_requests_total{op="put",code="429"}`]
	m["serve.bytes_per_event"] = ratio(s[`jstar_serve_bytes_total{op="put",code="200"}`], s[`jstar_serve_tuples_total{op="put",code="200"}`])
}

// load is one tenant's worth of generated input: the keys in the order
// they are sent, cut into pre-encoded frames per client.
type load struct {
	keys   [clients][]int64
	frames [clients][][]byte
	rows   int
}

// makeLoad draws a seeded permutation of [0, events), splits it between
// the clients (so their keys are disjoint) and encodes rows-sized frames.
func makeLoad(seed uint64, events, rows int, sch *tuple.Schema) (*load, time.Duration, error) {
	perm := rand.New(rand.NewSource(int64(seed))).Perm(events)
	base := int64(seed%1024) << 32
	l := &load{rows: rows}
	var encode time.Duration
	per := events / clients
	for c := 0; c < clients; c++ {
		for _, k := range perm[c*per : (c+1)*per] {
			l.keys[c] = append(l.keys[c], base+int64(k))
		}
		for at := 0; at+rows <= per; at += rows {
			batch := make([][]tuple.Value, rows)
			for i := range batch {
				batch[i] = []tuple.Value{tuple.Int(l.keys[c][at+i])}
			}
			t0 := time.Now()
			frame, err := serve.AppendFrame(nil, sch, batch)
			encode += time.Since(t0)
			if err != nil {
				return nil, 0, err
			}
			l.frames[c] = append(l.frames[c], frame)
		}
		l.keys[c] = l.keys[c][:len(l.frames[c])*rows]
	}
	return l, encode, nil
}

func (l *load) events() int { return (len(l.frames[0]) + len(l.frames[1])) * l.rows }

// stand is a running service with the durable tenant created and the
// load encoded: what set-up produces.
type stand struct {
	dir     string
	svc     *service
	admin   *serve.Client
	cl      [clients]*serve.Client
	load    *load
	encode  time.Duration
	created tenantInfo
}

func tenantConfig(dir, strategy string) serve.TenantConfig {
	return serve.TenantConfig{
		Name: tenantName, Source: fanoutSource, Strategy: strategy,
		// Default flush policy: 2 ms / 64 KiB group commit, real fsync.
		Durability: &serve.DurabilityConfig{WalDir: dir},
	}
}

// scratchDir makes a fresh directory for a log under the output directory,
// so that fsyncs hit the checkout's own filesystem.
func scratchDir(e *env) (string, error) {
	base := filepath.Join(e.outDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "wal-")
}

// setUp is the serve workloads' set-up: WAL directory, listener, server,
// compile + tenant start, key generation and frame encoding.
func setUp(ctx context.Context, e *env, events, rows int, strategy string) (*stand, error) {
	prog, err := lang.CompileSource(fanoutSource)
	if err != nil {
		return nil, err
	}
	dir, err := scratchDir(e)
	if err != nil {
		return nil, err
	}
	st := &stand{dir: dir}
	if st.load, st.encode, err = makeLoad(e.seed, events, rows, prog.Schema("Event")); err != nil {
		return nil, err
	}
	if err := st.open(ctx, strategy); err != nil {
		return nil, err
	}
	return st, nil
}

// open starts a server and creates the tenant over st.dir — a fresh log on
// first use, a recovery afterwards.
func (st *stand) open(ctx context.Context, strategy string) error {
	var err error
	if st.svc, err = startService(); err != nil {
		return err
	}
	st.admin = newClient(st.svc.base)
	for c := range st.cl {
		st.cl[c] = newClient(st.svc.base)
	}
	doc, err := st.admin.CreateTenant(ctx, tenantConfig(st.dir, strategy))
	if err != nil {
		st.close()
		return fmt.Errorf("create tenant: %w", err)
	}
	st.created, err = decodeInfo(doc)
	return err
}

func (st *stand) close() {
	closeClient(st.admin)
	for _, c := range st.cl {
		closeClient(c)
	}
	st.svc.stop()
}

func (st *stand) remove() { _ = os.RemoveAll(st.dir) } // scratch; a leftover is only litter

// outcome collects what one tenant's life showed, over and above the
// timings its caller takes, and says where its spans go.
type outcome struct {
	tr   *tracer // nil: record no spans for this tenant
	iter int

	attempted, failed int
	putRTT, queryRTT  []float64 // µs
	quiesceRTT        []float64 // µs
	steps             int64
	checkpointMs      float64
	checkpointSeq     uint64
	checkpointTuples  int
	info              tenantInfo
	scrape            map[string]float64
	recoverS          float64
	restored, replay  int
}

func (o *outcome) op(err error) bool {
	o.attempted++
	if err != nil {
		o.failed++
		return false
	}
	return true
}

// refusedBackoff is how long the generator waits after a 429. The server's
// Retry-After is one whole second, the coarsest HTTP allows; obeying it to
// the letter would let a handful of refusals decide a two-second ingest.
// One group-commit interval is long enough for the coordinator to absorb
// the ring it refused on.
const refusedBackoff = 2 * time.Millisecond

// retryRefused runs send until the server accepts it. A 429 is the
// service's backpressure, not a fault: the request is re-sent after
// refusedBackoff and the refusal is counted by the server
// (serve.refused_429). Only a request that is never accepted is a failed
// operation.
func retryRefused(ctx context.Context, send func() error) error {
	for refused := 0; ; refused++ {
		err := send()
		if !serve.IsStatus(err, http.StatusTooManyRequests) || refused == 1000 {
			return err
		}
		select {
		case <-time.After(refusedBackoff):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// put delivers one pre-encoded frame.
func put(ctx context.Context, c *serve.Client, frame []byte) error {
	return retryRefused(ctx, func() error { return c.PutBinary(ctx, tenantName, frame) })
}

func wantRow(n int64) string { return fmt.Sprintf("[[%d,%d]]", n, 2*n) }

func queryKey(ctx context.Context, c *serve.Client, n int64) error {
	raw, err := c.Query(ctx, tenantName, "Out", fmt.Sprintf("[%d]", n))
	if err != nil {
		return err
	}
	if string(raw) != wantRow(n) {
		return fmt.Errorf("query Out[%d] = %s, want %s", n, raw, wantRow(n))
	}
	return nil
}

// checkSample re-queries up to want seeded sample keys; each must return
// exactly (n, 2n).
func (st *stand) checkSample(ctx context.Context, seed uint64, o *outcome, want, parent int) {
	rng := rand.New(rand.NewSource(int64(seed) + 1))
	for i := 0; i < want; i++ {
		keys := st.load.keys[i%clients]
		n := keys[rng.Intn(len(keys))]
		sp := o.tr.begin("serve.query", parent, o.iter)
		t0 := time.Now()
		err := queryKey(ctx, st.admin, n)
		o.queryRTT = append(o.queryRTT, micros(time.Since(t0)))
		o.tr.end(sp)
		if !o.op(err) {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
	}
}

// checkLog holds the tenant's log to the input: every event sent was
// appended exactly once.
func (st *stand) checkLog(ctx context.Context, o *outcome) {
	info, err := getInfo(ctx, st.admin)
	if err == nil && (info.WAL == nil || info.WAL.Appended != uint64(st.load.events())) {
		err = fmt.Errorf("wal appended %+v, want %d events", info.WAL, st.load.events())
	}
	if !o.op(err) {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	o.info = info
}

// recover closes the server, starts a fresh one over the same directory
// and times CreateTenant → Quiesce → first answered query. What was
// restored and replayed must add up to the checkpoint position.
func (st *stand) recover(ctx context.Context, o *outcome, parent int) {
	st.close()
	sp := o.tr.begin("recover", parent, o.iter)
	t0 := time.Now()
	err := st.open(ctx, "")
	if err == nil {
		// The tail is re-fired after CreateTenant returns; recovery is over
		// when the replayed events' results can be queried.
		_, err = st.admin.Quiesce(ctx, tenantName)
	}
	if err == nil {
		err = queryKey(ctx, st.admin, st.load.keys[clients-1][len(st.load.keys[clients-1])-1])
	}
	o.recoverS = time.Since(t0).Seconds()
	o.tr.end(sp)
	if err == nil {
		r := st.created.Recovery
		switch {
		case r == nil:
			err = errors.New("recovery reported nothing")
		case r.CheckpointSeq != o.checkpointSeq || r.CheckpointTuples != o.checkpointTuples ||
			uint64(r.Replayed) != uint64(st.load.events())-r.CheckpointSeq:
			err = fmt.Errorf("recovery %+v inconsistent with checkpoint seq %d (%d tuples) and %d events",
				*r, o.checkpointSeq, o.checkpointTuples, st.load.events())
		default:
			o.restored, o.replay = r.CheckpointTuples, r.Replayed
		}
	}
	if !o.op(err) {
		fmt.Fprintln(os.Stderr, "benchmark: recover:", err)
	}
}

func (st *stand) checkpoint(ctx context.Context, o *outcome, parent int) {
	sp := o.tr.begin("serve.checkpoint", parent, o.iter)
	ck, err := st.admin.Checkpoint(ctx, tenantName)
	o.tr.end(sp)
	if o.op(err) {
		o.checkpointMs = millis(time.Duration(ck.ElapsedNanos))
		o.checkpointSeq, o.checkpointTuples = ck.Seq, ck.Tuples
	}
}

// ---- serve-saturate ----

// saturate is one tenant's life in the closed loop: both clients stream
// their frames, next put on ack; client 0 checkpoints at its half-way
// put; one final Quiesce; then the gate, then a recovery. It returns the
// ingest time (first put sent → Quiesce returned) and the CPU it took.
func saturate(ctx context.Context, e *env, st *stand, o *outcome) (ingest, cpu float64) {
	tr, iter := o.tr, o.iter
	root := tr.begin("iteration", -1, iter)
	defer tr.end(root)
	ing := tr.begin("ingest", root, iter)
	var (
		wg   sync.WaitGroup
		outs [clients]outcome
	)
	cpu0, t0 := cpuSeconds(), time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			oc := &outs[c]
			oc.tr, oc.iter = tr, iter
			for f, frame := range st.load.frames[c] {
				if c == 0 && f == len(st.load.frames[c])/2 {
					st.checkpoint(ctx, oc, ing)
				}
				sp := tr.begin("serve.put", ing, iter)
				p0 := time.Now()
				err := put(ctx, st.cl[c], frame)
				oc.putRTT = append(oc.putRTT, micros(time.Since(p0)))
				tr.end(sp)
				if !oc.op(err) {
					fmt.Fprintln(os.Stderr, "benchmark: put:", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	sp := tr.begin("serve.quiesce", ing, iter)
	q0 := time.Now()
	q, err := st.admin.Quiesce(ctx, tenantName)
	o.quiesceRTT = append(o.quiesceRTT, micros(time.Since(q0)))
	tr.end(sp)
	ingest, cpu = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	tr.end(ing)
	for c := range outs {
		o.attempted += outs[c].attempted
		o.failed += outs[c].failed
		o.putRTT = append(o.putRTT, outs[c].putRTT...)
		if outs[c].checkpointSeq > 0 {
			o.checkpointMs, o.checkpointSeq, o.checkpointTuples = outs[c].checkpointMs, outs[c].checkpointSeq, outs[c].checkpointTuples
		}
	}
	if o.op(err) {
		o.steps = q.Steps
	}

	gate := tr.begin("verify", root, iter)
	st.checkSample(ctx, e.seed, o, e.sz.SampleKeys, gate)
	st.checkLog(ctx, o)
	if e.trace {
		o.scrape, _ = scrape(ctx, st.admin) // rows only; a failed scrape leaves them 0
	}
	tr.end(gate)
	st.recover(ctx, o, root)
	st.checkSample(ctx, e.seed, o, e.sz.SampleKeys/10, root)
	return ingest, cpu
}

func runServeSaturate(e *env) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	res := newResult()
	var (
		setups, ingests, traced, recovers []float64
		cpus                              []float64 // CPU seconds per tenant's ingest
		events                            int
		all, last                         outcome
		encodeNs                          float64
	)
	// The traced run shares its window with the strategy sweep and the
	// standalone probes, and records spans on every other tenant so that
	// their cost is read from the same minutes of the same host.
	window := e.seconds
	if e.trace {
		window *= 0.45
	}
	mem0, start := readMem(), time.Now()
	for i := 0; i < e.sz.MinIters || time.Since(start).Seconds() < window; i++ {
		runtime.GC() // every tenant starts from the same heap, outside its timing
		t0 := time.Now()
		st, err := setUp(ctx, e, e.sz.SatEvents, e.sz.SatRows, "")
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		last = outcome{iter: i}
		if i%2 == 1 {
			last.tr = e.tr
		}
		ingest, c := saturate(ctx, e, st, &last)
		st.close()
		st.remove()
		if last.tr == nil {
			ingests = append(ingests, ingest)
		} else {
			traced = append(traced, ingest)
		}
		cpus = append(cpus, c)
		events += st.load.events()
		recovers = append(recovers, last.recoverS)
		encodeNs = perItem(st.encode, st.load.events())
		all.attempted += last.attempted
		all.failed += last.failed
		all.putRTT = append(all.putRTT, last.putRTT...)
		all.queryRTT = append(all.queryRTT, last.queryRTT...)
		all.quiesceRTT = append(all.quiesceRTT, last.quiesceRTT...)
	}
	mem := memSince(mem0)
	res.attempted, res.failed = all.attempted, all.failed

	perTenant := float64(events) / float64(len(ingests)+len(traced))
	m := res.metrics
	m["setup_s"] = median(setups)
	m["latency_p50_ms"] = median(all.putRTT) / 1e3
	m["tuples_per_s"] = ratio(perTenant, median(ingests))
	m["cpu_us_per_tuple"] = ratio(median(cpus)*1e6, perTenant)
	m["peak_rss_mb"] = peakRSSMB()
	if !e.trace {
		return res, nil
	}

	m["serve.ingest_events_per_s"] = m["tuples_per_s"]
	m["serve.recover_s"] = median(recovers)
	m["serve.query_p50_ms"] = median(all.queryRTT) / 1e3
	m["serve.query_rtt_p50_us"] = median(all.queryRTT)
	m["serve.put_rtt_p50_us"] = median(all.putRTT)
	m["serve.quiesce_rtt_p50_us"] = median(all.quiesceRTT)
	m["serve.encode_ns_per_row"] = encodeNs
	serverRows(m, last.scrape, median(all.putRTT))
	walRows(m, &last, int(perTenant))
	m["trace.overhead_frac"] = ratio(median(traced), median(ingests)) - 1
	mem.into(m, float64(events))

	// exec: one more tenant per strategy the engine lists.
	times := make(map[string][]float64)
	for _, name := range exec.StrategyNames() {
		st, err := setUp(ctx, e, e.sz.SatEvents, e.sz.SatRows, name)
		if err != nil {
			return nil, err
		}
		var o outcome
		sp := e.tr.begin("exec."+name, -1, 0)
		ingest, _ := saturate(ctx, e, st, &o)
		e.tr.end(sp)
		st.close()
		st.remove()
		times[name] = append(times[name], ingest)
		res.attempted += o.attempted
		res.failed += o.failed
	}
	strategyRows(res, times, median(ingests))

	if err := probeService(ctx, e, res, e.sz.SatRows, false); err != nil {
		return nil, err
	}
	tenantSteps(m, last.steps, perTenant)
	return res, nil
}

// tenantSteps replaces the replayed session's step rows with the real
// tenant's: the server reported its step count, and every event fires once
// and puts one Out, so its session saw two live tuples per event.
func tenantSteps(m map[string]float64, steps int64, events float64) {
	m["core.steps"] = float64(steps)
	m["core.mean_step_tuples"] = ratio(2*events, float64(steps))
}

// walRows are the rows the tenant itself reports about its log.
func walRows(m map[string]float64, o *outcome, events int) {
	if w := o.info.WAL; w != nil {
		m["wal.bytes_per_event"] = ratio(float64(w.Bytes), float64(events))
		m["wal.group_commits"] = float64(w.GroupCommits)
	}
	m["wal.checkpoint_ms"] = o.checkpointMs
	m["wal.restored_rows"] = float64(o.restored)
	m["wal.replayed_events"] = float64(o.replay)
}

// ---- serve-paced ----

// cycle is one put → quiesce → query → poll round of the open loop. Every
// latency is taken from the instant the cycle was due, not from when the
// generator got round to it, so a stall charges the cycles queued behind
// it.
type cycle struct {
	stage      int
	lateMs     float64 // generator lateness: actual start − due
	visibleMs  float64 // due → Quiesce returned
	putUs      float64
	quiesceUs  float64
	queryUs    float64
	pollUs     float64
	notified   bool
	ok, traced bool
}

func runServePaced(e *env) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	res := newResult()

	// Stage lengths follow -seconds; the traced run keeps 70 % of it and
	// gives the rest to the standalone probes.
	window := e.seconds
	if e.trace {
		window *= 0.7
	}
	stageLen := time.Duration(window / 3 * float64(time.Second))
	var perClient [3]int // cycles per client per stage
	total := 0
	for s, rate := range e.sz.PacedRates {
		perClient[s] = max(1, int(stageLen.Seconds()*float64(rate))/clients)
		total += perClient[s] * clients
	}

	var (
		setups []float64
		st     *stand
	)
	for i := 0; i < e.sz.Setups; i++ {
		if st != nil {
			st.close()
			st.remove()
		}
		t0 := time.Now()
		var err error
		if st, err = setUp(ctx, e, total*e.sz.PacedRows, e.sz.PacedRows, ""); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.remove()

	var subs [clients]serve.Subscription
	for c := range subs {
		var err error
		if subs[c], err = st.cl[c].Subscribe(ctx, tenantName, "Out", ""); err != nil {
			st.close()
			return nil, fmt.Errorf("subscribe: %w", err)
		}
	}

	var (
		o       = outcome{tr: e.tr}
		cycles  [clients][]cycle
		elapsed float64
		cpu     float64
	)
	mem0 := readMem()
	next := [clients]int{} // next frame per client
	for s, rate := range e.sz.PacedRates {
		period := time.Duration(float64(clients) / float64(rate) * float64(time.Second))
		var wg sync.WaitGroup
		cpu0, t0 := cpuSeconds(), time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				first := t0.Add(time.Duration(c) * period / clients)
				since := subs[c].Version
				for i := 0; i < perClient[s]; i++ {
					f := next[c] + i
					due := first.Add(time.Duration(i) * period)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					cy := pacedCycle(ctx, e, st, c, f, due, subs[c].ID, &since)
					cy.stage = s
					cycles[c] = append(cycles[c], cy)
				}
				subs[c].Version = since
			}(c)
		}
		wg.Wait()
		elapsed += time.Since(t0).Seconds()
		cpu += cpuSeconds() - cpu0
		for c := range next {
			next[c] += perClient[s]
		}
		if s == 1 {
			st.checkpoint(ctx, &o, -1)
		}
	}
	mem := memSince(mem0)

	q, err := st.admin.Quiesce(ctx, tenantName)
	if o.op(err) {
		o.steps = q.Steps
	}
	st.checkSample(ctx, e.seed, &o, e.sz.SampleKeys, -1)
	st.checkLog(ctx, &o)
	if e.trace {
		o.scrape, _ = scrape(ctx, st.admin) // rows only; a failed scrape leaves them 0
	}
	st.recover(ctx, &o, -1)
	st.checkSample(ctx, e.seed, &o, e.sz.SampleKeys/10, -1)
	st.close()

	var (
		visible, late, putUs, quiesceUs, queryUs, pollUs []float64
		spanned, bare                                    []float64
		byStage                                          [3][]float64
		notified                                         int
	)
	for c := range cycles {
		for _, cy := range cycles[c] {
			o.attempted++
			if !cy.ok {
				o.failed++
				continue
			}
			visible = append(visible, cy.visibleMs)
			byStage[cy.stage] = append(byStage[cy.stage], cy.visibleMs)
			late = append(late, cy.lateMs)
			putUs, quiesceUs = append(putUs, cy.putUs), append(quiesceUs, cy.quiesceUs)
			queryUs, pollUs = append(queryUs, cy.queryUs), append(pollUs, cy.pollUs)
			if cy.traced {
				spanned = append(spanned, cy.visibleMs)
			} else {
				bare = append(bare, cy.visibleMs)
			}
			if cy.notified {
				notified++
			}
		}
	}
	res.attempted, res.failed = o.attempted, o.failed
	events := float64(total * e.sz.PacedRows)

	m := res.metrics
	m["setup_s"] = median(setups)
	m["latency_p50_ms"] = median(visible)
	m["tuples_per_s"] = ratio(float64(len(visible)*e.sz.PacedRows), elapsed)
	m["cpu_us_per_tuple"] = ratio(cpu*1e6, events)
	m["peak_rss_mb"] = peakRSSMB()
	if !e.trace {
		return res, nil
	}

	m["serve.ingest_events_per_s"] = ratio(events, elapsed)
	m["serve.recover_s"] = o.recoverS
	m["serve.visibility_p50_ms"] = median(visible)
	m["serve.visibility_within_limit"] = shareWithin(visible, total, e.sz.LimitMs)
	m["serve.visibility_p99_ms"] = tailQuantile(visible, 0.99)
	m["serve.visibility_p999_ms"] = tailQuantile(visible, 0.999)
	m["serve.query_p50_ms"] = median(queryUs) / 1e3
	m["serve.query_rtt_p50_us"] = median(queryUs)
	m["serve.put_rtt_p50_us"] = median(putUs)
	m["serve.quiesce_rtt_p50_us"] = median(quiesceUs)
	m["serve.poll_rtt_p50_us"] = median(pollUs)
	m["serve.notifications_per_cycle"] = ratio(float64(notified), float64(total))
	m["serve.gen_late_p99_ms"] = tailQuantile(late, 0.99)
	m["serve.encode_ns_per_row"] = perItem(st.encode, st.load.events())
	for s, name := range []string{"low", "mid", "high"} {
		m["serve.rate_"+name+".visibility_p50_ms"] = median(byStage[s])
		res.detail[fmt.Sprintf("serve.rate_%s.cycles_per_s", name)] = float64(e.sz.PacedRates[s])
		if shareWithin(byStage[s], perClient[s]*clients, e.sz.LimitMs) >= 0.99 {
			m["serve.max_rate_within_limit"] = float64(e.sz.PacedRates[s])
		}
	}
	serverRows(m, o.scrape, median(putUs))
	walRows(m, &o, int(events))
	m["trace.overhead_frac"] = ratio(median(spanned), median(bare)) - 1
	mem.into(m, events)

	if err := probeService(ctx, e, res, e.sz.PacedRows, true); err != nil {
		return nil, err
	}
	tenantSteps(m, o.steps, events)
	return res, nil
}

// pacedCycle runs cycle f of client c. Spans are recorded on even cycles
// only; the odd ones are the same traffic without them.
func pacedCycle(ctx context.Context, e *env, st *stand, c, f int, due time.Time, sub int64, since *int64) cycle {
	cy := cycle{lateMs: millis(time.Since(due))}
	var tr *tracer
	if f%2 == 0 {
		tr, cy.traced = e.tr, e.tr != nil
	}
	root := tr.begin("cycle", -1, f*clients+c)
	defer tr.end(root)
	cl := st.cl[c]

	sp := tr.begin("serve.put", root, f*clients+c)
	t0 := time.Now()
	err := put(ctx, cl, st.load.frames[c][f])
	cy.putUs = micros(time.Since(t0))
	tr.end(sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: paced put:", err)
		return cy
	}

	sp = tr.begin("serve.quiesce", root, f*clients+c)
	t0 = time.Now()
	_, err = cl.Quiesce(ctx, tenantName)
	cy.quiesceUs = micros(time.Since(t0))
	tr.end(sp)
	cy.visibleMs = millis(time.Since(due))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: paced quiesce:", err)
		return cy
	}

	lastKey := st.load.keys[c][(f+1)*st.load.rows-1]
	sp = tr.begin("serve.query", root, f*clients+c)
	t0 = time.Now()
	err = queryKey(ctx, cl, lastKey)
	cy.queryUs = micros(time.Since(t0))
	tr.end(sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: paced query:", err)
		return cy
	}

	sp = tr.begin("serve.poll", root, f*clients+c)
	t0 = time.Now()
	v, ok, err := cl.Poll(ctx, tenantName, sub, *since, 5*time.Second)
	cy.pollUs = micros(time.Since(t0))
	tr.end(sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: paced poll:", err)
		return cy
	}
	if ok {
		*since, cy.notified = v, true
	}
	cy.ok = true
	return cy
}
