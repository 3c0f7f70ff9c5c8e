// Package serve puts the engine's online Session on the wire: a
// multi-tenant HTTP front-end hosting many named programs in one process.
// Each tenant is a compiled JStar program with its own live Session,
// engine options (strategy, store plan) and quotas;
// clients stream tuples in (JSON or the length-prefixed binary batch
// format), force quiescent boundaries, run prefix queries against the
// quiesced Gamma stores, and register query subscriptions that fire when
// a table's quiesced state changes (long-poll or SSE, driven by the
// engine's per-table change generations).
//
// The server is plain net/http: over TLS the stdlib negotiates HTTP/2
// automatically; over cleartext sockets it speaks HTTP/1.1 (the repo adds
// no dependencies, so there is no h2c path). Every request is measured
// into a flat RequestMetrics row, aggregated on a Prometheus-style
// /metrics endpoint and optionally appended to a CSV log.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/tuple"
	"github.com/jstar-lang/jstar/internal/wal"
)

var (
	errTenantExists = errors.New("serve: tenant already exists")
	errTenantQuota  = errors.New("serve: tenant quota exceeded")
)

// Config tunes a Server. Zero values pick the documented defaults.
type Config struct {
	// MaxTenants caps concurrently hosted sessions (default 64).
	MaxTenants int
	// MaxInflightPuts is the per-tenant default cap on concurrent
	// ingestion requests (default 32); TenantConfig can override per
	// tenant. Excess puts are rejected with 429 rather than queued, so a
	// flooding client observes backpressure instead of unbounded memory.
	// This is the fallback cap behind AdmitPendingFraction.
	MaxInflightPuts int
	// AdmitPendingFraction is the per-tenant default ingress-backpressure
	// admission threshold: a put gets 429 when the session's unabsorbed
	// ingress backlog exceeds this fraction of the ingress bound (default
	// 0.75). TenantConfig can override per tenant; a negative value
	// disables the backlog check, leaving only the inflight semaphore.
	AdmitPendingFraction float64
	// MetricsCSV, when non-nil, receives one CSV row per served request
	// (header first; see CSVHeader).
	MetricsCSV io.Writer
	// LongPollTimeout bounds a subscription poll with no explicit timeout
	// parameter (default 30s, capped at 2m).
	LongPollTimeout time.Duration
	// TestWALFS, when non-nil, supplies the WAL filesystem for durable
	// tenants whose config names no wal_dir — the crash-fault injection
	// hook for tests (wal.FaultFS). Production tenants always name a
	// directory; this is never settable over the wire.
	TestWALFS func(tenant string) wal.FS
}

// Server hosts the tenant registry and the HTTP API. Create with New,
// mount Handler on any http.Server, Close to shut every session down.
type Server struct {
	cfg    Config
	reg    *registry
	met    *metricsSink
	mux    *http.ServeMux
	ctx    context.Context // parent of every tenant session
	cancel context.CancelFunc
	// draining is cancelled by Drain (and by Close): every parked
	// long-poll and event stream waits under it.
	draining context.Context
	drain    context.CancelFunc
}

// New builds a Server with its routes registered.
func New(cfg Config) *Server {
	if cfg.MaxTenants == 0 {
		cfg.MaxTenants = 64
	}
	if cfg.MaxInflightPuts <= 0 {
		cfg.MaxInflightPuts = 32
	}
	if cfg.AdmitPendingFraction == 0 {
		cfg.AdmitPendingFraction = 0.75
	}
	if cfg.LongPollTimeout <= 0 {
		cfg.LongPollTimeout = 30 * time.Second
	}
	if cfg.LongPollTimeout > 2*time.Minute {
		cfg.LongPollTimeout = 2 * time.Minute
	}
	ctx, cancel := context.WithCancel(context.Background())
	draining, drain := context.WithCancel(ctx)
	s := &Server{
		cfg:      cfg,
		reg:      newRegistry(cfg.MaxTenants, cfg.TestWALFS),
		met:      newMetricsSink(cfg.MetricsCSV),
		mux:      http.NewServeMux(),
		ctx:      ctx,
		cancel:   cancel,
		draining: draining,
		drain:    drain,
	}
	s.routes()
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain ends every parked long-poll the way the end of its window does
// (204) and ends every event stream; polls and streams that arrive later
// return at once. Puts, quiesces and queries are untouched. It is what the
// start of a graceful shutdown must do, because http.Server.Shutdown waits
// for every active handler and a parked subscriber is one until its window
// ends: hs.RegisterOnShutdown(srv.Drain).
func (s *Server) Drain() { s.drain() }

// parked derives the context a long-poll or an event stream waits under:
// the request's, ended early by Drain.
func (s *Server) parked(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.draining, cancel)
	return ctx, func() { stop(); cancel() }
}

// Close shuts down every tenant session. The HTTP listener is the
// caller's to close (the Server is just a handler).
func (s *Server) Close() {
	s.cancel()
	s.reg.closeAll()
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.met.writeProm(w, s.reg.count())
		tenants := s.reg.list()
		writeStepProm(w, tenants)
		writeWALProm(w, tenants)
	})
	s.mux.HandleFunc("POST /v1/tenants", s.instrument("create", s.handleCreate))
	s.mux.HandleFunc("GET /v1/tenants", s.instrument("list", s.handleList))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}", s.instrument("info", s.handleInfo))
	s.mux.HandleFunc("DELETE /v1/tenants/{tenant}", s.instrument("close", s.handleClose))
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/put", s.instrument("put", s.handlePut))
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/quiesce", s.instrument("quiesce", s.handleQuiesce))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/query", s.instrument("query", s.handleQuery))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/snapshot", s.instrument("snapshot", s.handleSnapshot))
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/checkpoint", s.instrument("checkpoint", s.handleCheckpoint))
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/subscribe", s.instrument("subscribe", s.handleSubscribe))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/subscriptions/{id}/poll", s.instrument("poll", s.handlePoll))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/subscriptions/{id}/events", s.instrument("events", s.handleEvents))
	s.mux.HandleFunc("DELETE /v1/tenants/{tenant}/subscriptions/{id}", s.instrument("unsubscribe", s.handleUnsubscribe))
}

// instrument wraps a handler with the flat per-request measurement: the
// handler fills in the metrics row (tuples, bytes, pipeline nanos) and
// returns the status it wrote; instrument stamps Start/Total and records.
func (s *Server) instrument(op string, fn func(http.ResponseWriter, *http.Request, *RequestMetrics) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m := RequestMetrics{Start: time.Now(), Op: op, Tenant: r.PathValue("tenant")}
		m.Status = fn(w, r, &m)
		m.TotalNanos = time.Since(m.Start).Nanoseconds()
		s.met.record(m)
	}
}

// writeJSON writes v with the given status and returns the status, so
// handlers can end with `return writeJSON(...)`.
func writeJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
	return status
}

// fail maps an error to an HTTP status and writes the JSON error body.
func fail(w http.ResponseWriter, status int, err error) int {
	return writeJSON(w, status, map[string]string{"error": err.Error()})
}

// failErr classifies common engine errors onto statuses.
func failErr(w http.ResponseWriter, err error) int {
	switch {
	case errors.Is(err, core.ErrSessionClosed):
		return fail(w, http.StatusGone, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return fail(w, http.StatusRequestTimeout, err)
	default:
		return fail(w, http.StatusInternalServerError, err)
	}
}

// tenant resolves the {tenant} path segment, writing 404 when absent.
func (s *Server) tenant(w http.ResponseWriter, r *http.Request) (*Tenant, int) {
	name := r.PathValue("tenant")
	t := s.reg.get(name)
	if t == nil {
		return nil, fail(w, http.StatusNotFound, fmt.Errorf("serve: no tenant %q", name))
	}
	return t, 0
}

// ---- lifecycle ----

type tenantInfo struct {
	Name     string           `json:"name"`
	Strategy string           `json:"strategy,omitempty"`
	Tables   []string         `json:"tables"`
	Versions map[string]int64 `json:"versions"`
	Subs     int              `json:"subscriptions"`
	// Durable tenants additionally report WAL counters and, when the
	// session was created over an existing log directory, what recovery
	// found there.
	Durable  bool               `json:"durable,omitempty"`
	WAL      *walInfo           `json:"wal,omitempty"`
	Recovery *core.RecoveryInfo `json:"recovery,omitempty"`
}

// walInfo is the JSON view of wal.Stats for the info endpoint.
type walInfo struct {
	Appended          uint64  `json:"appended"`
	DurableSeq        uint64  `json:"durable_seq"`
	Bytes             int64   `json:"bytes"`
	GroupCommits      int64   `json:"group_commits"`
	Segments          int     `json:"segments"`
	CheckpointSeq     uint64  `json:"checkpoint_seq"`
	CheckpointAgeSecs float64 `json:"checkpoint_age_seconds,omitempty"`
}

func (s *Server) info(t *Tenant) tenantInfo {
	info := tenantInfo{
		Name:     t.Name,
		Strategy: t.Config.Strategy,
		Versions: make(map[string]int64),
		Subs:     t.subs.count(),
	}
	for _, sch := range t.Prog.Tables() {
		info.Tables = append(info.Tables, sch.Name)
		if v, err := t.Session.TableVersion(sch.Name); err == nil {
			info.Versions[sch.Name] = v
		}
	}
	if st, ok := t.Session.WALStats(); ok {
		info.Durable = true
		wi := &walInfo{
			Appended:      st.Appended,
			DurableSeq:    st.DurableSeq,
			Bytes:         st.Bytes,
			GroupCommits:  st.GroupCommits,
			Segments:      st.Segments,
			CheckpointSeq: st.CheckpointSeq,
		}
		if !st.LastCheckpoint.IsZero() {
			wi.CheckpointAgeSecs = time.Since(st.LastCheckpoint).Seconds()
		}
		info.WAL = wi
		info.Recovery = t.Session.Recovery()
	}
	return info
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request, m *RequestMetrics) int {
	// A misspelt or retired option must not create a tenant that silently
	// runs on defaults: unknown fields, nested ones included, are a 400
	// naming the field.
	var cfg TenantConfig
	dec := json.NewDecoder(io.LimitReader(r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return fail(w, http.StatusBadRequest, fmt.Errorf("serve: create tenant: %w", err))
	}
	m.Tenant = cfg.Name
	t, err := s.reg.create(s.ctx, cfg, s.cfg.MaxInflightPuts, s.cfg.AdmitPendingFraction)
	switch {
	case errors.Is(err, errTenantExists):
		return fail(w, http.StatusConflict, err)
	case errors.Is(err, errTenantQuota):
		return fail(w, http.StatusTooManyRequests, err)
	case err != nil:
		return fail(w, http.StatusBadRequest, err)
	}
	return writeJSON(w, http.StatusCreated, s.info(t))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request, m *RequestMetrics) int {
	out := []tenantInfo{}
	for _, t := range s.reg.list() {
		out = append(out, s.info(t))
	}
	return writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request, m *RequestMetrics) int {
	t, status := s.tenant(w, r)
	if t == nil {
		return status
	}
	return writeJSON(w, http.StatusOK, s.info(t))
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request, m *RequestMetrics) int {
	if !s.reg.remove(r.PathValue("tenant")) {
		return fail(w, http.StatusNotFound, fmt.Errorf("serve: no tenant %q", r.PathValue("tenant")))
	}
	return writeJSON(w, http.StatusOK, map[string]bool{"closed": true})
}

// ---- ingestion ----

// countingReader tracks bytes drained from a request body.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request, m *RequestMetrics) int {
	t, status := s.tenant(w, r)
	if t == nil {
		return status
	}
	if err := t.admitPut(); err != nil {
		w.Header().Set("Retry-After", "1")
		return fail(w, http.StatusTooManyRequests, err)
	}
	defer t.releasePut()
	body := &countingReader{r: r.Body}
	put := func(ts ...*tuple.Tuple) error {
		t0 := time.Now()
		err := t.Session.PutBatch(ts...)
		m.EnqueueNanos += time.Since(t0).Nanoseconds()
		return err
	}
	var (
		tuples int64
		err    error
	)
	if r.Header.Get("Content-Type") == BinaryContentType {
		tuples, err = binaryIngest(body, r.ContentLength, t.Prog, put)
	} else {
		tuples, err = jsonIngest(body, t.Prog, put)
	}
	m.Tuples, m.Bytes = tuples, body.n
	if err != nil {
		if errors.Is(err, core.ErrSessionClosed) {
			return failErr(w, err)
		}
		return fail(w, http.StatusBadRequest, err)
	}
	return writeJSON(w, http.StatusOK, map[string]int64{
		"tuples":        tuples,
		"bytes":         body.n,
		"enqueue_nanos": m.EnqueueNanos,
	})
}

// ---- quiescence, query, checkpoint ----

func (s *Server) handleQuiesce(w http.ResponseWriter, r *http.Request, m *RequestMetrics) int {
	t, status := s.tenant(w, r)
	if t == nil {
		return status
	}
	t0 := time.Now()
	err := t.Session.Quiesce(r.Context())
	m.QuiesceNanos = time.Since(t0).Nanoseconds()
	if err != nil {
		return failErr(w, err)
	}
	versions := make(map[string]int64)
	for _, sch := range t.Prog.Tables() {
		if v, verr := t.Session.TableVersion(sch.Name); verr == nil {
			versions[sch.Name] = v
		}
	}
	steps, _ := t.Session.QuiescedSteps()
	return writeJSON(w, http.StatusOK, map[string]any{
		"quiesce_nanos": m.QuiesceNanos,
		"steps":         steps,
		"versions":      versions,
	})
}

// queryTarget resolves the table/prefix query parameters shared by query
// and snapshot.
func (s *Server) queryTarget(w http.ResponseWriter, r *http.Request, t *Tenant) (*gamma.Query, *tuple.Schema, int) {
	name := r.URL.Query().Get("table")
	sch := t.Prog.Schema(name)
	if sch == nil {
		return nil, nil, fail(w, http.StatusNotFound, fmt.Errorf("serve: tenant %s has no table %q", t.Name, name))
	}
	prefix, err := prefixFromJSON(sch, r.URL.Query().Get("prefix"))
	if err != nil {
		return nil, nil, fail(w, http.StatusBadRequest, err)
	}
	return &gamma.Query{Prefix: prefix}, sch, 0
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, m *RequestMetrics) int {
	t, status := s.tenant(w, r)
	if t == nil {
		return status
	}
	q, sch, status := s.queryTarget(w, r, t)
	if q == nil {
		return status
	}
	m.Table = sch.Name
	var rows []*tuple.Tuple
	if err := t.Session.Query(sch, *q, func(tp *tuple.Tuple) bool {
		rows = append(rows, tp)
		return true
	}); err != nil {
		return fail(w, http.StatusBadRequest, err)
	}
	m.Tuples = int64(len(rows))
	if v, err := t.Session.TableVersion(sch.Name); err == nil {
		w.Header().Set("X-Jstar-Version", strconv.FormatInt(v, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	out := RowsJSON(rows)
	m.Bytes = int64(len(out))
	w.Write(out)
	return http.StatusOK
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, m *RequestMetrics) int {
	t, status := s.tenant(w, r)
	if t == nil {
		return status
	}
	name := r.URL.Query().Get("table")
	sch := t.Prog.Schema(name)
	if sch == nil {
		return fail(w, http.StatusNotFound, fmt.Errorf("serve: tenant %s has no table %q", t.Name, name))
	}
	m.Table = name
	rows, err := t.Session.Snapshot(sch)
	if err != nil {
		return fail(w, http.StatusBadRequest, err)
	}
	m.Tuples = int64(len(rows))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	out := RowsJSON(rows)
	m.Bytes = int64(len(out))
	w.Write(out)
	return http.StatusOK
}

// handleCheckpoint forces a Gamma checkpoint at the next quiescent
// boundary and reports what it covered. Only durable tenants (created
// with a durability config) accept it.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request, m *RequestMetrics) int {
	t, status := s.tenant(w, r)
	if t == nil {
		return status
	}
	info, err := t.Session.Checkpoint(r.Context())
	if err != nil {
		if errors.Is(err, core.ErrSessionClosed) {
			return failErr(w, err)
		}
		return fail(w, http.StatusBadRequest, err)
	}
	m.Tuples = int64(info.Tuples)
	return writeJSON(w, http.StatusOK, map[string]any{
		"seq":           info.Seq,
		"tables":        info.Tables,
		"tuples":        info.Tuples,
		"elapsed_nanos": info.Elapsed.Nanoseconds(),
	})
}

// ---- subscriptions ----

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request, m *RequestMetrics) int {
	t, status := s.tenant(w, r)
	if t == nil {
		return status
	}
	var body struct {
		Table  string `json:"table"`
		Prefix string `json:"prefix,omitempty"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&body); err != nil {
		return fail(w, http.StatusBadRequest, err)
	}
	m.Table = body.Table
	sch := t.Prog.Schema(body.Table)
	if sch == nil {
		return fail(w, http.StatusNotFound, fmt.Errorf("serve: tenant %s has no table %q", t.Name, body.Table))
	}
	prefix, err := prefixFromJSON(sch, body.Prefix)
	if err != nil {
		return fail(w, http.StatusBadRequest, err)
	}
	// A prefix subscriber arms the engine's per-bucket dirty tracking
	// before reading its watermark, so every window after the watermark
	// carries bucket information for the filter.
	if len(prefix) > 0 {
		t.Session.TrackPrefixes()
	}
	since, err := t.Session.TableVersion(body.Table)
	if err != nil {
		return failErr(w, err)
	}
	sub := t.subs.add(body.Table, body.Prefix, prefix, since)
	return writeJSON(w, http.StatusCreated, map[string]any{
		"id":      sub.ID,
		"table":   sub.Table,
		"version": since,
	})
}

// pollSub resolves the {id} path segment against the tenant's hub.
func pollSub(w http.ResponseWriter, r *http.Request, t *Tenant) (*subscription, int) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		return nil, fail(w, http.StatusBadRequest, fmt.Errorf("serve: bad subscription id %q", r.PathValue("id")))
	}
	sub := t.subs.get(id)
	if sub == nil {
		return nil, fail(w, http.StatusNotFound, fmt.Errorf("serve: tenant %s has no subscription %d", t.Name, id))
	}
	return sub, 0
}

func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request, m *RequestMetrics) int {
	t, status := s.tenant(w, r)
	if t == nil {
		return status
	}
	sub, status := pollSub(w, r, t)
	if sub == nil {
		return status
	}
	m.Table = sub.Table
	since, err := sub.since(r.URL.Query().Get("since"))
	if err != nil {
		return fail(w, http.StatusBadRequest, err)
	}
	timeout := s.cfg.LongPollTimeout
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		d, perr := time.ParseDuration(raw)
		if perr != nil || d <= 0 {
			return fail(w, http.StatusBadRequest, fmt.Errorf("serve: bad timeout %q", raw))
		}
		if d < timeout {
			timeout = d
		}
	}
	parked, unpark := s.parked(r)
	defer unpark()
	ctx, cancel := context.WithTimeout(parked, timeout)
	defer cancel()
	v, err := sub.waitChange(ctx, t.Session, since)
	if errors.Is(err, context.DeadlineExceeded) || (errors.Is(err, context.Canceled) && s.draining.Err() != nil) {
		w.WriteHeader(http.StatusNoContent) // no change inside the window, or the server cut it short
		return http.StatusNoContent
	}
	if err != nil {
		return failErr(w, err)
	}
	sub.ack(v)
	s.met.noteNotification()
	return writeJSON(w, http.StatusOK, map[string]any{
		"id":      sub.ID,
		"table":   sub.Table,
		"version": v,
	})
}

// handleEvents streams subscription notifications as server-sent events:
// one `change` event per quiesced-state change of the table, carrying the
// new generation. The stream opens with a `hello` event naming the current
// generation so the client can detect changes it raced with.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, m *RequestMetrics) int {
	t, status := s.tenant(w, r)
	if t == nil {
		return status
	}
	sub, status := pollSub(w, r, t)
	if sub == nil {
		return status
	}
	m.Table = sub.Table
	flusher, ok := w.(http.Flusher)
	if !ok {
		return fail(w, http.StatusNotImplemented, errors.New("serve: streaming unsupported"))
	}
	since, err := sub.since(r.URL.Query().Get("since"))
	if err != nil {
		return fail(w, http.StatusBadRequest, err)
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "event: hello\ndata: {\"table\":%q,\"version\":%d}\n\n", sub.Table, since)
	flusher.Flush()
	ctx, unpark := s.parked(r)
	defer unpark()
	for {
		v, err := sub.waitChange(ctx, t.Session, since)
		if err != nil {
			// Client gone, server draining, session closed, or failed: end
			// the stream.
			return http.StatusOK
		}
		since = v
		sub.ack(v)
		s.met.noteNotification()
		fmt.Fprintf(w, "event: change\ndata: {\"table\":%q,\"version\":%d}\n\n", sub.Table, v)
		flusher.Flush()
	}
}

func (s *Server) handleUnsubscribe(w http.ResponseWriter, r *http.Request, m *RequestMetrics) int {
	t, status := s.tenant(w, r)
	if t == nil {
		return status
	}
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil || !t.subs.remove(id) {
		return fail(w, http.StatusNotFound, fmt.Errorf("serve: tenant %s has no subscription %s", t.Name, r.PathValue("id")))
	}
	return writeJSON(w, http.StatusOK, map[string]bool{"removed": true})
}
