package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"github.com/jstar-lang/jstar/internal/stats"
)

// RequestMetrics is the flat per-request measurement every handler fills
// in: one struct per served request, no nesting, so a row maps 1:1 onto a
// CSV line and onto the aggregate counters behind /metrics. The nanos
// fields split the request's life along the ingestion pipeline: Enqueue is
// time spent handing the batch to the session's ingress (PutBatch),
// Quiesce is time blocked waiting for the quiescent boundary, Total is
// wall time in the handler.
type RequestMetrics struct {
	Start        time.Time
	Tenant       string
	Op           string
	Table        string
	Tuples       int64
	Bytes        int64
	Status       int
	EnqueueNanos int64
	QuiesceNanos int64
	TotalNanos   int64
}

// CSVHeader is the column list of the optional per-request CSV log, in the
// order csvLine writes them.
const CSVHeader = "start_unix_nanos,tenant,op,table,tuples,bytes,status,enqueue_nanos,quiesce_nanos,total_nanos"

func (m *RequestMetrics) csvLine() string {
	return fmt.Sprintf("%d,%s,%s,%s,%d,%d,%d,%d,%d,%d\n",
		m.Start.UnixNano(), m.Tenant, m.Op, m.Table,
		m.Tuples, m.Bytes, m.Status, m.EnqueueNanos, m.QuiesceNanos, m.TotalNanos)
}

// opCounters aggregates one (op, status) cell of the request counters.
type opCounters struct {
	requests int64
	tuples   int64
	bytes    int64
}

// metricsSink aggregates RequestMetrics rows into /metrics counters and
// latency histograms, and optionally appends each row to a CSV log.
// Histogram observation is lock-free; the counter map takes a short mutex.
type metricsSink struct {
	mu       sync.Mutex
	counters map[[2]string]*opCounters // key: {op, status}
	csv      io.Writer
	csvErr   error

	latency map[string]*stats.Histogram // per-op total nanos; under mu for map access
	enqueue stats.Histogram
	quiesce stats.Histogram

	notifications int64 // subscription wake-ups delivered; under mu
}

func newMetricsSink(csv io.Writer) *metricsSink {
	s := &metricsSink{
		counters: make(map[[2]string]*opCounters),
		latency:  make(map[string]*stats.Histogram),
		csv:      csv,
	}
	if csv != nil {
		_, s.csvErr = io.WriteString(csv, CSVHeader+"\n")
	}
	return s
}

// record folds one finished request into the aggregates and the CSV log.
func (s *metricsSink) record(m RequestMetrics) {
	s.mu.Lock()
	key := [2]string{m.Op, fmt.Sprintf("%d", m.Status)}
	c := s.counters[key]
	if c == nil {
		c = &opCounters{}
		s.counters[key] = c
	}
	c.requests++
	c.tuples += m.Tuples
	c.bytes += m.Bytes
	h := s.latency[m.Op]
	if h == nil {
		h = &stats.Histogram{}
		s.latency[m.Op] = h
	}
	if s.csv != nil && s.csvErr == nil {
		_, s.csvErr = io.WriteString(s.csv, m.csvLine())
	}
	s.mu.Unlock()

	h.Observe(m.TotalNanos)
	if m.EnqueueNanos > 0 {
		s.enqueue.Observe(m.EnqueueNanos)
	}
	if m.QuiesceNanos > 0 {
		s.quiesce.Observe(m.QuiesceNanos)
	}
}

func (s *metricsSink) noteNotification() {
	s.mu.Lock()
	s.notifications++
	s.mu.Unlock()
}

// writeProm renders the aggregates in Prometheus text exposition format.
// tenants is sampled by the caller (it lives in the registry).
func (s *metricsSink) writeProm(w io.Writer, tenants int) {
	s.mu.Lock()
	keys := make([][2]string, 0, len(s.counters))
	for k := range s.counters {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	ops := make([]string, 0, len(s.latency))
	for op := range s.latency {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	notifications := s.notifications
	type cell struct {
		k [2]string
		c opCounters
	}
	cells := make([]cell, 0, len(keys))
	for _, k := range keys {
		cells = append(cells, cell{k, *s.counters[k]})
	}
	hists := make(map[string]*stats.Histogram, len(ops))
	for _, op := range ops {
		hists[op] = s.latency[op]
	}
	s.mu.Unlock()

	fmt.Fprintf(w, "# TYPE jstar_serve_requests_total counter\n")
	for _, c := range cells {
		fmt.Fprintf(w, "jstar_serve_requests_total{op=%q,code=%q} %d\n", c.k[0], c.k[1], c.c.requests)
	}
	fmt.Fprintf(w, "# TYPE jstar_serve_tuples_total counter\n")
	for _, c := range cells {
		fmt.Fprintf(w, "jstar_serve_tuples_total{op=%q,code=%q} %d\n", c.k[0], c.k[1], c.c.tuples)
	}
	fmt.Fprintf(w, "# TYPE jstar_serve_bytes_total counter\n")
	for _, c := range cells {
		fmt.Fprintf(w, "jstar_serve_bytes_total{op=%q,code=%q} %d\n", c.k[0], c.k[1], c.c.bytes)
	}
	fmt.Fprintf(w, "# TYPE jstar_serve_request_nanos summary\n")
	for _, op := range ops {
		sum := hists[op].Summary()
		for _, q := range []struct {
			label string
			v     int64
		}{{"0.5", sum.P50Nanos}, {"0.99", sum.P99Nanos}, {"0.999", sum.P999Nanos}} {
			fmt.Fprintf(w, "jstar_serve_request_nanos{op=%q,quantile=%q} %d\n", op, q.label, q.v)
		}
		fmt.Fprintf(w, "jstar_serve_request_nanos_count{op=%q} %d\n", op, sum.Count)
	}
	for _, hn := range []struct {
		name string
		h    *stats.Histogram
	}{{"jstar_serve_enqueue_nanos", &s.enqueue}, {"jstar_serve_quiesce_nanos", &s.quiesce}} {
		name, h := hn.name, hn.h
		sum := h.Summary()
		fmt.Fprintf(w, "# TYPE %s summary\n", name)
		for _, q := range []struct {
			label string
			v     int64
		}{{"0.5", sum.P50Nanos}, {"0.99", sum.P99Nanos}, {"0.999", sum.P999Nanos}} {
			fmt.Fprintf(w, "%s{quantile=%q} %d\n", name, q.label, q.v)
		}
		fmt.Fprintf(w, "%s_count %d\n", name, sum.Count)
	}
	fmt.Fprintf(w, "# TYPE jstar_serve_tenants gauge\njstar_serve_tenants %d\n", tenants)
	fmt.Fprintf(w, "# TYPE jstar_serve_notifications_total counter\njstar_serve_notifications_total %d\n", notifications)
}

// writeStepProm renders what each tenant's executor did, as of the
// tenant's last quiescent boundary: steps run, and how many of them were
// heavy enough to be fanned out over the workers. A slow tenant with no
// fanned steps is slow in its step boundaries or its requests, not in its
// rule bodies.
func writeStepProm(w io.Writer, tenants []*Tenant) {
	if len(tenants) == 0 {
		return
	}
	fmt.Fprintf(w, "# TYPE jstar_serve_steps_total counter\n")
	for _, t := range tenants {
		steps, _ := t.Session.QuiescedSteps()
		fmt.Fprintf(w, "jstar_serve_steps_total{tenant=%q} %d\n", t.Name, steps)
	}
	fmt.Fprintf(w, "# TYPE jstar_serve_fanned_steps_total counter\n")
	for _, t := range tenants {
		_, fanned := t.Session.QuiescedSteps()
		fmt.Fprintf(w, "jstar_serve_fanned_steps_total{tenant=%q} %d\n", t.Name, fanned)
	}
}

// writeWALProm renders per-tenant durability rows after the request
// aggregates: WAL bytes on disk, group commits performed, and the newest
// checkpoint's age, write time and size (0 before the first). Non-durable
// tenants emit nothing.
func writeWALProm(w io.Writer, tenants []*Tenant) {
	durable := tenants[:0:0]
	for _, t := range tenants {
		if _, ok := t.Session.WALStats(); ok {
			durable = append(durable, t)
		}
	}
	if len(durable) == 0 {
		return
	}
	fmt.Fprintf(w, "# TYPE jstar_serve_wal_bytes_total counter\n")
	for _, t := range durable {
		st, _ := t.Session.WALStats()
		fmt.Fprintf(w, "jstar_serve_wal_bytes_total{tenant=%q} %d\n", t.Name, st.Bytes)
	}
	fmt.Fprintf(w, "# TYPE jstar_serve_wal_group_commits_total counter\n")
	for _, t := range durable {
		st, _ := t.Session.WALStats()
		fmt.Fprintf(w, "jstar_serve_wal_group_commits_total{tenant=%q} %d\n", t.Name, st.GroupCommits)
	}
	fmt.Fprintf(w, "# TYPE jstar_serve_wal_last_checkpoint_age_seconds gauge\n")
	for _, t := range durable {
		st, _ := t.Session.WALStats()
		age := -1.0 // never checkpointed
		if !st.LastCheckpoint.IsZero() {
			age = time.Since(st.LastCheckpoint).Seconds()
		}
		fmt.Fprintf(w, "jstar_serve_wal_last_checkpoint_age_seconds{tenant=%q} %g\n", t.Name, age)
	}
	fmt.Fprintf(w, "# TYPE jstar_serve_wal_last_checkpoint_seconds gauge\n")
	for _, t := range durable {
		st, _ := t.Session.WALStats()
		fmt.Fprintf(w, "jstar_serve_wal_last_checkpoint_seconds{tenant=%q} %g\n", t.Name, st.LastCheckpointElapsed.Seconds())
	}
	fmt.Fprintf(w, "# TYPE jstar_serve_wal_last_checkpoint_bytes gauge\n")
	for _, t := range durable {
		st, _ := t.Session.WALStats()
		fmt.Fprintf(w, "jstar_serve_wal_last_checkpoint_bytes{tenant=%q} %d\n", t.Name, st.LastCheckpointBytes)
	}
}
