package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"testing"
	"time"

	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/lang"
	"github.com/jstar-lang/jstar/internal/serve"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// The two parity apps. Both are driven entirely by external puts, so the
// same event stream can feed a wire session and an in-process session.

// doubleSrc fans every Event(n) out to Out(n, 2n) — order-free ingestion.
const doubleSrc = `
table Event(int n) orderby (Event)
table Out(int n, int v) orderby (Out)
order Event < Out

foreach (Event e) {
  put new Out(e.n, e.n * 2)
}
`

// dijkstraSrc is the paper's §1.2 shortest path with the graph and source
// estimate supplied externally — exercises seq ordering and uniq queries
// behind the wire.
const dijkstraSrc = `
table Edge(int from, int to, int value) orderby (Edge)
table Estimate(int vertex, int distance) orderby (Int, seq distance, Estimate)
table Done(int vertex -> int distance) orderby (Int, seq distance, Done)
order Edge < Int
order Estimate < Done

foreach (Estimate dist) {
  if (get uniq? Done(dist.vertex, [distance < dist.distance]) == null) {
    put new Done(dist.vertex, dist.distance)
    for (edge : get Edge(dist.vertex)) {
      if (get uniq? Done(edge.to) == null) {
        put new Estimate(edge.to, dist.distance + edge.value)
      }
    }
  }
}
`

// event is one externally injected tuple, table + int fields.
type event struct {
	table string
	vals  []int64
}

func doubleEvents(n int) []event {
	evs := make([]event, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, event{"Event", []int64{int64(i)}})
	}
	return evs
}

func dijkstraEvents() []event {
	return []event{
		{"Edge", []int64{0, 2, 2}},
		{"Edge", []int64{2, 1, 3}},
		{"Edge", []int64{1, 3, 1}},
		{"Edge", []int64{0, 3, 9}},
		{"Edge", []int64{3, 4, 1}},
		{"Estimate", []int64{0, 0}},
	}
}

// runInProcess drives src with evs through a plain in-process Session and
// returns each table's canonical rows JSON.
func runInProcess(t *testing.T, src, strategy string, evs []event, tables []string) map[string][]byte {
	t.Helper()
	prog, err := lang.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Quiet: true}
	if strategy != "" {
		st, err := exec.ParseStrategy(strategy)
		if err != nil {
			t.Fatal(err)
		}
		opts.Strategy = st
	}
	sess, err := prog.Start(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, ev := range evs {
		sch := prog.Schema(ev.table)
		fields := make([]tuple.Value, len(ev.vals))
		for i, v := range ev.vals {
			fields[i] = tuple.Int(v)
		}
		if err := sess.PutBatch(tuple.New(sch, fields...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, name := range tables {
		sch := prog.Schema(name)
		var rows []*tuple.Tuple
		sess.Query(sch, gamma.Query{}, func(tp *tuple.Tuple) bool {
			rows = append(rows, tp)
			return true
		})
		out[name] = serve.RowsJSON(rows)
	}
	return out
}

// binaryFrames encodes evs grouped into per-event frames (worst case:
// maximal frame count) using the wire codec.
func binaryFrames(t *testing.T, prog *core.Program, evs []event) []byte {
	t.Helper()
	var out []byte
	for _, ev := range evs {
		sch := prog.Schema(ev.table)
		row := make([]tuple.Value, len(ev.vals))
		for i, v := range ev.vals {
			row[i] = tuple.Int(v)
		}
		var err error
		out, err = serve.AppendFrame(out, sch, [][]tuple.Value{row})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func jsonRows(evs []event, table string) [][]any {
	var rows [][]any
	for _, ev := range evs {
		if ev.table != table {
			continue
		}
		row := make([]any, len(ev.vals))
		for i, v := range ev.vals {
			row[i] = v
		}
		rows = append(rows, row)
	}
	return rows
}

func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *serve.Client) {
	t.Helper()
	srv := serve.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, serve.NewClient(hs.URL)
}

// TestServeParity is the tentpole acceptance test: the same event stream
// through the wire (PutBatch → Quiesce → Query over real sockets) and
// through an in-process Session must produce byte-identical canonical
// rows, for two apps and all three strategies.
func TestServeParity(t *testing.T) {
	apps := []struct {
		name   string
		src    string
		evs    []event
		tables []string
	}{
		{"double", doubleSrc, doubleEvents(200), []string{"Event", "Out"}},
		{"dijkstra", dijkstraSrc, dijkstraEvents(), []string{"Edge", "Estimate", "Done"}},
	}
	for _, app := range apps {
		for _, strategy := range []string{"seq", "forkjoin", "auto"} {
			t.Run(app.name+"/"+strategy, func(t *testing.T) {
				_, client := newTestServer(t, serve.Config{})
				ctx := context.Background()
				tenant := app.name + "-" + strategy
				if _, err := client.CreateTenant(ctx, serve.TenantConfig{
					Name: tenant, Source: app.src, Strategy: strategy,
				}); err != nil {
					t.Fatal(err)
				}
				// Half the stream over the binary codec, half over JSON, so
				// both wire formats are on the parity path.
				prog, err := lang.CompileSource(app.src)
				if err != nil {
					t.Fatal(err)
				}
				half := len(app.evs) / 2
				if half > 0 {
					if err := client.PutBinary(ctx, tenant, binaryFrames(t, prog, app.evs[:half])); err != nil {
						t.Fatal(err)
					}
				}
				for _, table := range app.tables {
					rows := jsonRows(app.evs[half:], table)
					if len(rows) == 0 {
						continue
					}
					if err := client.PutJSON(ctx, tenant, table, rows); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := client.Quiesce(ctx, tenant); err != nil {
					t.Fatal(err)
				}
				want := inProcessRows(t, app.src, strategy, app.evs, app.tables)
				for _, table := range app.tables {
					got, err := client.Query(ctx, tenant, table, "")
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want[table]) {
						t.Errorf("%s: wire rows != in-process rows\n wire: %s\n proc: %s",
							table, got, want[table])
					}
				}
				if err := client.CloseTenant(ctx, tenant); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// inProcessRows mirrors the wire run with a local Session.
func inProcessRows(t *testing.T, src, strategy string, evs []event, tables []string) map[string][]byte {
	t.Helper()
	return runInProcess(t, src, strategy, evs, tables)
}

// TestServePrefixQuery checks prefix decoding and filtering over the wire.
func TestServePrefixQuery(t *testing.T) {
	_, client := newTestServer(t, serve.Config{})
	ctx := context.Background()
	if _, err := client.CreateTenant(ctx, serve.TenantConfig{Name: "t", Source: dijkstraSrc}); err != nil {
		t.Fatal(err)
	}
	if err := client.PutJSON(ctx, "t", "Edge", [][]any{{0, 1, 5}, {0, 2, 7}, {1, 2, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Quiesce(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	got, err := client.Query(ctx, "t", "Edge", "[0]")
	if err != nil {
		t.Fatal(err)
	}
	if want := `[[0,1,5],[0,2,7]]`; string(got) != want {
		t.Errorf("prefix query = %s, want %s", got, want)
	}
}

// TestServeSubscription drives the long-poll path: a subscriber registered
// mid-run is woken once per change and not woken without one.
func TestServeSubscription(t *testing.T) {
	_, client := newTestServer(t, serve.Config{})
	ctx := context.Background()
	if _, err := client.CreateTenant(ctx, serve.TenantConfig{Name: "t", Source: doubleSrc}); err != nil {
		t.Fatal(err)
	}
	// Establish some pre-subscription history the subscriber must not see.
	if err := client.PutJSON(ctx, "t", "Event", [][]any{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Quiesce(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	sub, err := client.Subscribe(ctx, "t", "Out", "")
	if err != nil {
		t.Fatal(err)
	}
	// No change since registration: the poll must time out, not fire.
	if _, ok, err := client.Poll(ctx, "t", sub.ID, sub.Version, 150*time.Millisecond); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("phantom notification: poll fired with no change")
	}
	since := sub.Version
	for i := 0; i < 3; i++ {
		if err := client.PutJSON(ctx, "t", "Event", [][]any{{100 + i}}); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Quiesce(ctx, "t"); err != nil {
			t.Fatal(err)
		}
		v, ok, err := client.Poll(ctx, "t", sub.ID, since, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("missed notification after change %d", i)
		}
		if v != since+1 {
			t.Fatalf("poll %d returned version %d, want %d", i, v, since+1)
		}
		since = v
	}
	// A duplicate put changes nothing in Gamma: no notification.
	if err := client.PutJSON(ctx, "t", "Event", [][]any{{100}}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Quiesce(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := client.Poll(ctx, "t", sub.ID, since, 150*time.Millisecond); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("phantom notification: duplicate put bumped the version")
	}
	if err := client.Unsubscribe(ctx, "t", sub.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Poll(ctx, "t", sub.ID, since, time.Second); !serve.IsStatus(err, http.StatusNotFound) {
		t.Fatalf("poll after unsubscribe: err = %v, want 404", err)
	}
}

// TestServeSSE streams change events while another client ingests.
func TestServeSSE(t *testing.T) {
	_, client := newTestServer(t, serve.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := client.CreateTenant(ctx, serve.TenantConfig{Name: "t", Source: doubleSrc}); err != nil {
		t.Fatal(err)
	}
	sub, err := client.Subscribe(ctx, "t", "Out", "")
	if err != nil {
		t.Fatal(err)
	}
	events := make(chan serve.SSEEvent, 16)
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- client.Events(ctx, "t", sub.ID, func(ev serve.SSEEvent) bool {
			events <- ev
			return ev.Event != "change" || ev.Version < 2
		})
	}()
	// First event is the hello with the registration version.
	ev := <-events
	if ev.Event != "hello" {
		t.Fatalf("first SSE event = %q, want hello", ev.Event)
	}
	for i := 0; i < 2; i++ {
		if err := client.PutJSON(ctx, "t", "Event", [][]any{{10 + i}}); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Quiesce(ctx, "t"); err != nil {
			t.Fatal(err)
		}
		ev := <-events
		if ev.Event != "change" || ev.Table != "Out" || ev.Version != int64(i+1) {
			t.Fatalf("SSE event %d = %+v, want change Out v%d", i, ev, i+1)
		}
	}
	if err := <-streamDone; err != nil {
		t.Fatal(err)
	}
}

// TestServeLifecycleAndQuotas covers tenant duplicate/missing handling and
// both quota layers.
func TestServeLifecycleAndQuotas(t *testing.T) {
	_, client := newTestServer(t, serve.Config{MaxTenants: 2})
	ctx := context.Background()
	if _, err := client.CreateTenant(ctx, serve.TenantConfig{Name: "a", Source: doubleSrc}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.CreateTenant(ctx, serve.TenantConfig{Name: "a", Source: doubleSrc}); !serve.IsStatus(err, http.StatusConflict) {
		t.Fatalf("duplicate create: err = %v, want 409", err)
	}
	if _, err := client.CreateTenant(ctx, serve.TenantConfig{Name: "bad", Source: "table ???"}); !serve.IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("bad source: err = %v, want 400", err)
	}
	// A strategy off the menu (the deleted ring executor's name) is refused
	// with the menu, and takes no tenant slot.
	if _, err := client.CreateTenant(ctx, serve.TenantConfig{Name: "bad", Source: doubleSrc, Strategy: "pipelined"}); !serve.IsStatus(err, http.StatusBadRequest) ||
		!strings.Contains(err.Error(), "auto|sequential|forkjoin") {
		t.Fatalf("unknown strategy: err = %v, want 400 listing auto|sequential|forkjoin", err)
	}
	if _, err := client.CreateTenant(ctx, serve.TenantConfig{Name: "b", Source: doubleSrc}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.CreateTenant(ctx, serve.TenantConfig{Name: "c", Source: doubleSrc}); !serve.IsStatus(err, http.StatusTooManyRequests) {
		t.Fatalf("tenant quota: err = %v, want 429", err)
	}
	if err := client.PutJSON(ctx, "nope", "Event", [][]any{{1}}); !serve.IsStatus(err, http.StatusNotFound) {
		t.Fatalf("put to missing tenant: err = %v, want 404", err)
	}
	if err := client.CloseTenant(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	if err := client.CloseTenant(ctx, "b"); !serve.IsStatus(err, http.StatusNotFound) {
		t.Fatalf("double close: err = %v, want 404", err)
	}
	// Freed slot is reusable.
	if _, err := client.CreateTenant(ctx, serve.TenantConfig{Name: "c", Source: doubleSrc}); err != nil {
		t.Fatal(err)
	}
}

// TestServeCreateRejectsUnknownFields: a create-tenant body naming a field
// TenantConfig does not have — a typo, a retired option, a misspelt
// durability knob — is a 400 naming the field, and no tenant is created
// with defaults in its place.
func TestServeCreateRejectsUnknownFields(t *testing.T) {
	srv := serve.New(serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	src, _ := json.Marshal(doubleSrc)
	for i, c := range []struct{ extra, field string }{
		{`"ingres_shards": 4`, "ingres_shards"},
		{`"ingress_shards": 4`, "ingress_shards"},
		{`"replan_every": 1`, "replan_every"},
		{`"durability": {"wal_dir": "` + t.TempDir() + `", "group_commit_ms": 1}`, "group_commit_ms"},
	} {
		body := fmt.Sprintf(`{"name": "t%d", "source": %s, %s}`, i, src, c.extra)
		resp, err := http.Post(hs.URL+"/v1/tenants", serve.JSONContentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), `unknown field \"`+c.field+`\"`) {
			t.Errorf("create with %s: %d %s, want 400 naming %q", c.extra, resp.StatusCode, msg, c.field)
		}
	}
	resp, err := http.Get(hs.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	list, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := strings.TrimSpace(string(list)); got != "[]" {
		t.Fatalf("rejected creates left tenants behind: %s", got)
	}
	client := serve.NewClient(hs.URL)
	if _, err := client.CreateTenant(context.Background(), serve.TenantConfig{Name: "t", Source: doubleSrc}); err != nil {
		t.Fatalf("create with known fields only: %v", err)
	}
}

// TestServeMetricsEndpoint checks the Prometheus rendering and the CSV log.
func TestServeMetricsEndpoint(t *testing.T) {
	var csv bytes.Buffer
	_, client := newTestServer(t, serve.Config{MetricsCSV: &csv})
	ctx := context.Background()
	if _, err := client.CreateTenant(ctx, serve.TenantConfig{Name: "t", Source: doubleSrc}); err != nil {
		t.Fatal(err)
	}
	if err := client.PutJSON(ctx, "t", "Event", [][]any{{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Quiesce(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	resp, err := client.HTTP.Get(client.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`jstar_serve_requests_total{op="put",code="200"} 1`,
		`jstar_serve_tuples_total{op="put",code="200"} 1`,
		`jstar_serve_tenants 1`,
		`jstar_serve_enqueue_nanos_count 1`,
		`jstar_serve_quiesce_nanos_count 1`,
		// One Event step, one Out step; single-tuple steps never fan out.
		`jstar_serve_steps_total{tenant="t"} 2`,
		`jstar_serve_fanned_steps_total{tenant="t"} 0`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if lines[0] != serve.CSVHeader {
		t.Errorf("CSV header = %q", lines[0])
	}
	if len(lines) < 4 {
		t.Errorf("CSV rows = %d, want >= 4\n%s", len(lines)-1, csv.String())
	}
	var putRow string
	for _, l := range lines[1:] {
		if strings.Contains(l, ",put,") {
			putRow = l
		}
	}
	if putRow == "" {
		t.Fatalf("no put row in CSV:\n%s", csv.String())
	}
	cols := strings.Split(putRow, ",")
	if len(cols) != len(strings.Split(serve.CSVHeader, ",")) {
		t.Errorf("put row has %d columns: %q", len(cols), putRow)
	}
}

// TestServeInflightQuota holds one slow put and checks a second is shed.
// The held put asks for "100 Continue", which the server sends when the
// handler first reads the body — after it has taken the tenant's only slot —
// so the test knows the slot is held without probing for it: a probing put
// could itself own the slot at the moment the held one arrives, get that one
// refused, and leave both sides waiting on the pipe.
func TestServeInflightQuota(t *testing.T) {
	_, client := newTestServer(t, serve.Config{})
	ctx := context.Background()
	if _, err := client.CreateTenant(ctx, serve.TenantConfig{
		Name: "t", Source: doubleSrc, MaxInflightPuts: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// A pipe body lets us hold the first put open inside the handler.
	pr, pw := io.Pipe()
	defer pw.Close() // on any exit: the server cannot close over an open body
	holding := make(chan struct{})
	first := make(chan error, 1)
	go func() {
		trace := &httptrace.ClientTrace{Got100Continue: func() { close(holding) }}
		req, _ := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace),
			http.MethodPost, client.Base+"/v1/tenants/t/put", pr)
		req.Header.Set("Content-Type", serve.JSONContentType)
		req.Header.Set("Expect", "100-continue")
		resp, err := client.HTTP.Do(req)
		if err == nil {
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("held put answered %s", resp.Status)
			}
			resp.Body.Close()
		}
		first <- err
	}()
	select {
	case <-holding:
	case err := <-first:
		t.Fatalf("held put returned before reading its body: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("held put never reached the handler")
	}
	if err := client.PutJSON(ctx, "t", "Event", [][]any{{1}}); !serve.IsStatus(err, http.StatusTooManyRequests) {
		t.Fatalf("second put while the only slot is held: %v, want 429", err)
	}
	fmt.Fprint(pw, `{"table":"Event","rows":[[42]]}`)
	pw.Close()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}

// TestServeBinaryRejectsGarbage: a corrupt stream must 400, not hang.
func TestServeBinaryRejectsGarbage(t *testing.T) {
	_, client := newTestServer(t, serve.Config{})
	ctx := context.Background()
	if _, err := client.CreateTenant(ctx, serve.TenantConfig{Name: "t", Source: doubleSrc}); err != nil {
		t.Fatal(err)
	}
	if err := client.PutBinary(ctx, "t", []byte{9, 'N', 'o', 'T'}); !serve.IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("garbage stream: err = %v, want 400", err)
	}
}

// TestTenantInfoVersions: the info endpoint exposes change generations.
func TestTenantInfoVersions(t *testing.T) {
	_, client := newTestServer(t, serve.Config{})
	ctx := context.Background()
	if _, err := client.CreateTenant(ctx, serve.TenantConfig{
		Name: "t", Source: doubleSrc, Strategy: "seq",
		StorePlan: map[string]string{"Out": "hash:1"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := client.PutJSON(ctx, "t", "Event", [][]any{{7}}); err != nil {
		t.Fatal(err)
	}
	res, err := client.Quiesce(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Versions["Event"] != 1 || res.Versions["Out"] != 1 {
		t.Errorf("versions after first change = %v, want Event/Out at 1", res.Versions)
	}
	resp, err := client.HTTP.Get(client.Base + "/v1/tenants/t")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info struct {
		Versions map[string]int64 `json:"versions"`
		Tables   []string         `json:"tables"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Versions["Out"] != 1 || len(info.Tables) != 2 {
		t.Errorf("info = %+v", info)
	}
}

// TestServePrefixFilteredSubscription pins the per-subscription prefix
// filter: a subscriber watching one key prefix must sleep through table
// changes that only touch other prefixes, and still wake for its own.
func TestServePrefixFilteredSubscription(t *testing.T) {
	_, client := newTestServer(t, serve.Config{})
	ctx := context.Background()
	if _, err := client.CreateTenant(ctx, serve.TenantConfig{Name: "t", Source: doubleSrc}); err != nil {
		t.Fatal(err)
	}
	// Pick two keys hashing to different prefix buckets, so the filter has
	// something to distinguish (bucket collisions wake spuriously by design).
	mine := int64(5)
	other := int64(-1)
	for v := int64(6); v < 200; v++ {
		if core.PrefixBucket(tuple.Int(v)) != core.PrefixBucket(tuple.Int(mine)) {
			other = v
			break
		}
	}
	if other < 0 {
		t.Fatal("no second prefix bucket found in 200 keys")
	}
	sub, err := client.Subscribe(ctx, "t", "Out", fmt.Sprintf("[%d]", mine))
	if err != nil {
		t.Fatal(err)
	}
	since := sub.Version
	// A change to a different prefix bumps the table version but must not
	// wake the filtered subscriber.
	if err := client.PutJSON(ctx, "t", "Event", [][]any{{other}}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Quiesce(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := client.Poll(ctx, "t", sub.ID, since, 250*time.Millisecond); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("filtered subscriber woke for a foreign-prefix change")
	}
	// A change to the watched prefix must wake it.
	if err := client.PutJSON(ctx, "t", "Event", [][]any{{mine}}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Quiesce(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	v, ok, err := client.Poll(ctx, "t", sub.ID, since, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("filtered subscriber missed a change to its own prefix")
	}
	if v <= since {
		t.Fatalf("poll version %d did not advance past %d", v, since)
	}
	// An unfiltered subscriber on the same table sees every change.
	all, err := client.Subscribe(ctx, "t", "Out", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := client.PutJSON(ctx, "t", "Event", [][]any{{other + 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Quiesce(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := client.Poll(ctx, "t", all.ID, all.Version, 5*time.Second); err != nil || !ok {
		t.Fatalf("unfiltered subscriber: ok=%v err=%v, want a wakeup", ok, err)
	}
}

// TestServeQuiesceWhilePutting: the quiesce response's step count is the one
// captured at the quiescent boundary. One client streams puts while another
// quiesces in a loop; a handler that read RunStats.Steps after Quiesce
// returned raced the coordinator the next put had restarted (-race reports
// it), and could see the count go backwards between two answers.
func TestServeQuiesceWhilePutting(t *testing.T) {
	const nEvents = 300
	_, client := newTestServer(t, serve.Config{})
	ctx := context.Background()
	if _, err := client.CreateTenant(ctx, serve.TenantConfig{Name: "q", Source: doubleSrc}); err != nil {
		t.Fatal(err)
	}
	putsDone := make(chan struct{})
	go func() {
		defer close(putsDone)
		for i := 0; i < nEvents; i++ {
			if err := client.PutJSON(ctx, "q", "Event", [][]any{{int64(i)}}); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
	}()
	var last int64
	for streaming := true; streaming; {
		select {
		case <-putsDone:
			streaming = false // one more quiesce covers the final puts
		default:
		}
		res, err := client.Quiesce(ctx, "q")
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps < last {
			t.Fatalf("steps went backwards: %d after %d", res.Steps, last)
		}
		last = res.Steps
	}
	if last < 2 {
		t.Fatalf("final quiesce reports %d steps, want at least one per table", last)
	}
	out, err := client.Query(ctx, "q", "Out", "")
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]int64
	if err := json.Unmarshal(out, &rows); err != nil || len(rows) != nEvents {
		t.Fatalf("Out holds %d rows (err %v), want %d", len(rows), err, nEvents)
	}
}
