package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"github.com/jstar-lang/jstar/internal/lang"
	"github.com/jstar-lang/jstar/internal/serve"
	"github.com/jstar-lang/jstar/internal/wal"
)

// ingestOneByOne streams evs to tenant one request per event — either
// codec — quiescing after each, so that every event is absorbed, teed and
// group-committed on its own however the coordinator would have coalesced a
// burst of requests: the number of WAL syncs then depends on the events
// sent, not on scheduling. It stops silently at the first error (puts and
// quiesces start failing after the injected fault fires, which is the
// point).
func ingestOneByOne(t *testing.T, client *serve.Client, tenant, codec string, evs []event) {
	t.Helper()
	prog, err := lang.CompileSource(doubleSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, ev := range evs {
		var perr error
		if codec == "binary" {
			perr = client.PutBinary(ctx, tenant, binaryFrames(t, prog, []event{ev}))
		} else {
			perr = client.PutJSON(ctx, tenant, ev.table, jsonRows([]event{ev}, ev.table))
		}
		if perr != nil {
			return // crashed tenant: expected mid-matrix
		}
		if _, err := client.Quiesce(ctx, tenant); err != nil {
			return
		}
	}
}

// recoveredEvents decodes the Event table's canonical rows JSON back into
// the event stream the recovered tenant holds.
func recoveredEvents(t *testing.T, raw []byte) []event {
	t.Helper()
	var rows [][]int64
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatalf("bad Event rows %s: %v", raw, err)
	}
	evs := make([]event, 0, len(rows))
	for _, r := range rows {
		evs = append(evs, event{"Event", r})
	}
	return evs
}

// TestServeCrashRecoveryParity is the satellite recovery matrix: crash
// points × {JSON, binary} ingest × all three strategies, each case at
// GOMAXPROCS 1, 2 and 4. Each case crashes a durable tenant mid-ingest at
// the kth fsync, recovers a fresh tenant from the power-loss view of its
// log, and demands the recovered quiesced snapshot equal what an uncrashed
// run over exactly the recovered input prefix would produce — never a
// half-applied step, never silent loss of acked-durable data.
func TestServeCrashRecoveryParity(t *testing.T) {
	const nEvents = 30
	evs := doubleEvents(nEvents)
	for _, strategy := range []string{"seq", "forkjoin", "auto"} {
		for _, codec := range []string{"json", "binary"} {
			for _, crashAt := range []int{1, 4, 9} {
				name := fmt.Sprintf("%s/%s/sync%d", strategy, codec, crashAt)
				t.Run(name, func(t *testing.T) {
					for _, procs := range []int{1, 2, 4} {
						func() {
							defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
							t.Logf("GOMAXPROCS=%d", procs)
							crashRecoverCase(t, strategy, codec, crashAt, evs)
						}()
					}
				})
			}
		}
	}
}

// crashRecoverCase is one cell of the crash matrix; see
// TestServeCrashRecoveryParity.
func crashRecoverCase(t *testing.T, strategy, codec string, crashAt int, evs []event) {
	t.Helper()
	nEvents := len(evs)
	ff := wal.NewFaultFS()
	ff.CrashAtSync(crashAt)
	_, client := newTestServer(t, serve.Config{
		TestWALFS: func(string) wal.FS { return ff },
	})
	ctx := context.Background()
	if _, err := client.CreateTenant(ctx, serve.TenantConfig{
		Name: "crash", Source: doubleSrc, Strategy: strategy,
		// GroupCommitBytes 1: sync per absorbed group, so crash points
		// land between ingest requests.
		Durability: &serve.DurabilityConfig{GroupCommitBytes: 1},
	}); err != nil {
		t.Fatal(err)
	}
	ingestOneByOne(t, client, "crash", codec, evs)
	client.Quiesce(ctx, "crash") // may fail post-crash; fine
	if !ff.Crashed() {
		t.Fatalf("fault never fired (only %d syncs)", ff.Syncs())
	}

	// Reboot: a new server recovers a tenant from the durable (power-loss)
	// view of the same directory.
	rebooted := ff.Durable()
	_, client2 := newTestServer(t, serve.Config{
		TestWALFS: func(string) wal.FS { return rebooted },
	})
	info, err := client2.CreateTenant(ctx, serve.TenantConfig{
		Name: "crash", Source: doubleSrc, Strategy: strategy,
		Durability: &serve.DurabilityConfig{},
	})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if info["durable"] != true {
		t.Fatalf("recovered tenant not marked durable: %v", info)
	}
	if _, err := client2.Quiesce(ctx, "crash"); err != nil {
		t.Fatal(err)
	}
	gotEvent, err := client2.Query(ctx, "crash", "Event", "")
	if err != nil {
		t.Fatal(err)
	}
	gotOut, err := client2.Query(ctx, "crash", "Out", "")
	if err != nil {
		t.Fatal(err)
	}

	// Parity: an uncrashed in-process run over exactly the recovered Event
	// prefix must yield identical rows.
	prefix := recoveredEvents(t, gotEvent)
	if len(prefix) > nEvents {
		t.Fatalf("recovered %d events, only %d were sent", len(prefix), nEvents)
	}
	want := runInProcess(t, doubleSrc, strategy, prefix, []string{"Event", "Out"})
	if !bytes.Equal(gotEvent, want["Event"]) || !bytes.Equal(gotOut, want["Out"]) {
		t.Fatalf("recovered snapshot != uncrashed covering prefix\n Event: %s\n  want: %s\n   Out: %s\n  want: %s",
			gotEvent, want["Event"], gotOut, want["Out"])
	}
}

// TestServeRecoveryOnCreate exercises the production path end to end on a
// real directory: durable tenant via wal_dir, explicit checkpoint over the
// wire, tenant closed, then re-created over the same directory — the new
// session must recover the old state before serving, and say so.
func TestServeRecoveryOnCreate(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, client := newTestServer(t, serve.Config{})
	cfg := serve.TenantConfig{
		Name: "dur", Source: doubleSrc,
		Durability: &serve.DurabilityConfig{WalDir: dir, GroupCommitMillis: 1},
	}
	if _, err := client.CreateTenant(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	evs := doubleEvents(50)
	ingestOneByOne(t, client, "dur", "json", evs)
	if _, err := client.Quiesce(ctx, "dur"); err != nil {
		t.Fatal(err)
	}
	ck, err := client.Checkpoint(ctx, "dur")
	if err != nil {
		t.Fatal(err)
	}
	if ck.Seq != 50 || ck.Tuples != 100 {
		t.Fatalf("checkpoint = %+v, want seq 50 covering 100 tuples", ck)
	}
	want, err := client.Query(ctx, "dur", "Out", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := client.CloseTenant(ctx, "dur"); err != nil {
		t.Fatal(err)
	}

	// Same directory, fresh server process: creation recovers first.
	_, client2 := newTestServer(t, serve.Config{})
	info, err := client2.CreateTenant(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := info["recovery"].(map[string]any)
	if !ok {
		t.Fatalf("create response carries no recovery info: %v", info)
	}
	if rec["CheckpointSeq"] != float64(50) {
		t.Fatalf("recovery info = %v, want checkpoint seq 50", rec)
	}
	if _, err := client2.Quiesce(ctx, "dur"); err != nil {
		t.Fatal(err)
	}
	got, err := client2.Query(ctx, "dur", "Out", "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered Out differs:\n got: %s\nwant: %s", got, want)
	}
}

// TestServeQueryRightAfterRecovery: creating a tenant over a populated WAL
// directory returns only once the replayed tail has been re-fired to its
// fixpoint, so a query issued straight after — no Quiesce — sees every
// recovered row. No checkpoint is taken, so all of the state comes from
// the replay the coordinator runs after Start has returned.
func TestServeQueryRightAfterRecovery(t *testing.T) {
	const nEvents = 20_000
	dir := t.TempDir()
	ctx := context.Background()
	cfg := serve.TenantConfig{
		Name: "dur", Source: doubleSrc,
		Durability: &serve.DurabilityConfig{WalDir: dir},
	}
	srv, client := newTestServer(t, serve.Config{})
	if _, err := client.CreateTenant(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	evs := doubleEvents(nEvents)
	for lo := 0; lo < nEvents; lo += 1000 {
		if err := client.PutJSON(ctx, "dur", "Event", jsonRows(evs[lo:lo+1000], "Event")); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Quiesce(ctx, "dur"); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close() // flushes the WAL tail

	_, client2 := newTestServer(t, serve.Config{})
	info, err := client2.CreateTenant(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := info["recovery"].(map[string]any); rec["Replayed"] != float64(nEvents) {
		t.Fatalf("recovery info = %v, want %d replayed events", info["recovery"], nEvents)
	}
	raw, err := client2.Query(ctx, "dur", "Out", "")
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]int64
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != nEvents {
		t.Fatalf("query right after recovery saw %d Out rows, want %d", len(rows), nEvents)
	}
}

// TestServeIdentityGuard: a WAL directory belongs to the tenant named in
// its segment headers; re-attaching it under a different tenant name must
// be refused loudly, not replayed into the wrong program.
func TestServeIdentityGuard(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, client := newTestServer(t, serve.Config{})
	d := &serve.DurabilityConfig{WalDir: dir}
	if _, err := client.CreateTenant(ctx, serve.TenantConfig{
		Name: "alice", Source: doubleSrc, Durability: d,
	}); err != nil {
		t.Fatal(err)
	}
	ingestOneByOne(t, client, "alice", "json", doubleEvents(5))
	if _, err := client.Quiesce(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := client.CloseTenant(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	_, err := client.CreateTenant(ctx, serve.TenantConfig{
		Name: "mallory", Source: doubleSrc, Durability: d,
	})
	if err == nil || !strings.Contains(err.Error(), "belongs to") {
		t.Fatalf("foreign wal dir accepted: %v", err)
	}
}

// TestServeWALMetrics: durable tenants surface WAL counters on /metrics.
func TestServeWALMetrics(t *testing.T) {
	ctx := context.Background()
	mem := wal.NewMemFS()
	srv, client := newTestServer(t, serve.Config{
		TestWALFS: func(string) wal.FS { return mem },
	})
	if _, err := client.CreateTenant(ctx, serve.TenantConfig{
		Name: "m", Source: doubleSrc,
		Durability: &serve.DurabilityConfig{},
	}); err != nil {
		t.Fatal(err)
	}
	ingestOneByOne(t, client, "m", "json", doubleEvents(20))
	if _, err := client.Quiesce(ctx, "m"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Checkpoint(ctx, "m"); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	rec := w.Body.String()
	for _, want := range []string{
		`jstar_serve_wal_bytes_total{tenant="m"}`,
		`jstar_serve_wal_group_commits_total{tenant="m"}`,
		`jstar_serve_wal_last_checkpoint_age_seconds{tenant="m"}`,
	} {
		if !strings.Contains(rec, want) {
			t.Errorf("metrics missing %s\n%s", want, rec)
		}
	}
}

// TestServeCheckpointNonDurableRefused: the endpoint is 400 on a tenant
// without a durability config.
func TestServeCheckpointNonDurableRefused(t *testing.T) {
	ctx := context.Background()
	_, client := newTestServer(t, serve.Config{})
	if _, err := client.CreateTenant(ctx, serve.TenantConfig{Name: "plain", Source: doubleSrc}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Checkpoint(ctx, "plain"); err == nil {
		t.Fatal("checkpoint on non-durable tenant must fail")
	}
}
