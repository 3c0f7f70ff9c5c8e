package serve

import (
	"bytes"
	"context"
	"github.com/jstar-lang/jstar/internal/exec"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// TestAdmitPutRingBackpressure pins the admission-control contract: a put
// is shed as soon as the session's unabsorbed ingress backlog crosses the
// tenant's pending fraction, admits again once the backlog drains, and the
// inflight semaphore survives as the fallback cap (admitFrac < 0).
func TestAdmitPutRingBackpressure(t *testing.T) {
	p := core.NewProgram()
	ev := p.Table("Event", []tuple.Column{{Name: "n", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Event"), tuple.Seq("n")})
	entered := make(chan struct{}, 1)
	block := make(chan struct{})
	p.Rule("block", ev, func(c *core.Ctx, tp *tuple.Tuple) {
		if tp.Int("n") == 0 {
			entered <- struct{}{}
			<-block
		}
	})
	sess, err := p.Start(context.Background(), core.Options{Strategy: exec.Sequential, Quiet: true, IngressRing: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ten := &Tenant{Name: "t", Session: sess, inflight: make(chan struct{}, 4), admitFrac: 0.1}
	if err := ten.admitPut(); err != nil {
		t.Fatalf("empty backlog must admit: %v", err)
	}
	ten.releasePut()
	// Park the coordinator inside a rule firing, then pile events into the
	// pending list behind it: they stay accepted-but-unabsorbed.
	if err := sess.Put(tuple.New(ev, tuple.Int(0))); err != nil {
		t.Fatal(err)
	}
	<-entered
	for i := int64(1); i <= 4; i++ {
		if err := sess.Put(tuple.New(ev, tuple.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if pending, capacity := sess.IngressBacklog(); pending < 4 || capacity != 16 {
		t.Fatalf("backlog = (%d, %d), want (>=4, 16)", pending, capacity)
	}
	if err := ten.admitPut(); err == nil {
		ten.releasePut()
		t.Fatal("admitPut admitted a put over a backlogged ingress")
	}
	close(block)
	if err := sess.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ten.admitPut(); err != nil {
		t.Fatalf("drained backlog must admit again: %v", err)
	}
	ten.releasePut()
	// admitFrac < 0 disables the backlog check; the semaphore still caps.
	ten2 := &Tenant{Name: "t2", Session: sess, inflight: make(chan struct{}, 1), admitFrac: -1}
	if err := ten2.admitPut(); err != nil {
		t.Fatal(err)
	}
	if err := ten2.admitPut(); err == nil {
		t.Fatal("semaphore fallback must cap inflight puts")
	}
	ten2.releasePut()
}

// TestServedTriggerTableIsColumnar: a client-fed trigger table that no rule
// queries gets the compiler's columnar hint, like the terminal table its rule
// fills, and its served reads do not depend on the store: /query (whole
// table and one prefix) and /snapshot answer byte-identical bodies under
// the derived plan and under an explicit B-tree plan for it.
func TestServedTriggerTableIsColumnar(t *testing.T) {
	const src = `
table Event(int n) orderby (Event)
table Out(int n, int v) orderby (Out)
order Event < Out

foreach (Event e) {
  put new Out(e.n, e.n * 2)
}
`
	srv := New(Config{})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	client := NewClient(hs.URL)
	ctx := context.Background()
	// Keys arrive permuted and repeated, in three quiesced batches: a step
	// stores its batch in key order, so only several steps make columnar's
	// insertion order differ from the B-tree's key order.
	var rows [][]any
	for i := 0; i < 300; i++ {
		rows = append(rows, []any{(i * 7919) % 257})
	}
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", path, resp.StatusCode, err)
		}
		return body
	}
	reads := func(tenant string) [][]byte {
		t.Helper()
		all, err := client.Query(ctx, tenant, "Event", "")
		if err != nil {
			t.Fatal(err)
		}
		one, err := client.Query(ctx, tenant, "Event", "[5]")
		if err != nil {
			t.Fatal(err)
		}
		return [][]byte{all, one, get("/v1/tenants/" + tenant + "/snapshot?table=Event")}
	}
	var bodies [][][]byte
	for _, tc := range []struct {
		tenant    string
		plan      map[string]string
		wantEvent string
	}{
		{"derived", nil, "columnar"},
		{"tree", map[string]string{"Event": "tree"}, "tree"},
	} {
		if _, err := client.CreateTenant(ctx, TenantConfig{Name: tc.tenant, Source: src, StorePlan: tc.plan}); err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(rows); lo += 100 {
			if err := client.PutJSON(ctx, tc.tenant, "Event", rows[lo:lo+100]); err != nil {
				t.Fatal(err)
			}
			if _, err := client.Quiesce(ctx, tc.tenant); err != nil {
				t.Fatal(err)
			}
		}
		kinds := srv.reg.get(tc.tenant).Session.Stats().StoreKinds
		if kinds["Event"] != tc.wantEvent || kinds["Out"] != "columnar" {
			t.Errorf("%s: store kinds %v, want Event %s and Out columnar", tc.tenant, kinds, tc.wantEvent)
		}
		bodies = append(bodies, reads(tc.tenant))
	}
	for i, name := range []string{"/query", "/query prefix [5]", "/snapshot"} {
		if !bytes.Equal(bodies[0][i], bodies[1][i]) {
			t.Errorf("%s on Event differs by store:\ncolumnar %s\ntree     %s", name, bodies[0][i], bodies[1][i])
		}
	}
	if !bytes.Equal(bodies[0][1], []byte("[[5]]")) {
		t.Errorf("/query prefix [5] = %s, want [[5]]", bodies[0][1])
	}
}
