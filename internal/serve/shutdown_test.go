package serve_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/jstar-lang/jstar/internal/serve"
)

// TestShutdownEndsParkedSubscribers: http.Server.Shutdown waits for every
// active handler, and a parked long-poll or an open event stream is one for
// as long as its window lasts. With Drain registered on the shutdown, as
// cmd/jstar-serve does, a graceful shutdown must end the poll the way its
// window ending does (204), end the stream, let a put that is still sending
// its body finish, and return nil long before the 30 s poll window — with
// the put's rows there afterwards and no goroutine left behind. No sleeps:
// every wait is on an event, and the only clock is Shutdown's own deadline.
func TestShutdownEndsParkedSubscribers(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Shutdown closes connections that have no request in progress, so the
	// test waits until the server has entered all three handlers.
	entered := make(chan string, 3)
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for _, op := range []string{"/poll", "/events", "/put"} {
			if strings.HasSuffix(r.URL.Path, op) {
				entered <- op
			}
		}
		srv.Handler().ServeHTTP(w, r)
	})}
	hs.RegisterOnShutdown(srv.Drain)
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	ctx := context.Background()
	client := serve.NewClient("http://" + ln.Addr().String())
	if _, err := client.CreateTenant(ctx, serve.TenantConfig{Name: "t", Source: doubleSrc}); err != nil {
		t.Fatal(err)
	}
	pollSub, err := client.Subscribe(ctx, "t", "Out", "")
	if err != nil {
		t.Fatal(err)
	}
	streamSub, err := client.Subscribe(ctx, "t", "Out", "")
	if err != nil {
		t.Fatal(err)
	}

	polled := make(chan error, 1)
	go func() {
		_, changed, err := client.Poll(ctx, "t", pollSub.ID, pollSub.Version, 30*time.Second)
		if err == nil && changed {
			err = errors.New("reported a change, want 204")
		}
		polled <- err
	}()
	hello, streamed := make(chan struct{}), make(chan error, 1)
	go func() {
		streamed <- client.Events(ctx, "t", streamSub.ID, func(ev serve.SSEEvent) bool {
			if ev.Event == "hello" {
				close(hello)
			}
			return true
		})
	}()
	// The put stops half-way through its body: its handler is inside the
	// JSON decoder when the shutdown starts.
	body, bodyW := io.Pipe()
	put := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, client.Base+"/v1/tenants/t/put", body)
		req.Header.Set("Content-Type", serve.JSONContentType)
		resp, err := client.HTTP.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("http status %d", resp.StatusCode)
			}
		}
		put <- err
	}()
	if _, err := io.WriteString(bodyW, `{"table":"Event","rows":[[1],[2]`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		<-entered
	}
	<-hello

	shutdown := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		shutdown <- hs.Shutdown(sctx)
	}()
	for what, ended := range map[string]chan error{"parked poll": polled, "event stream": streamed} {
		select {
		case err := <-ended:
			if err != nil {
				t.Errorf("%s: %v", what, err)
			}
		case err := <-shutdown:
			t.Fatalf("Shutdown = %v with the %s still open", err, what)
		}
	}
	// Both subscribers are gone and the shutdown is under way; the put
	// finishes its body now and must still be served.
	if _, err := io.WriteString(bodyW, `,[3]]}`); err != nil {
		t.Fatal(err)
	}
	bodyW.Close()
	if err := <-put; err != nil {
		t.Errorf("in-flight put: %v", err)
	}
	if err := <-shutdown; err != nil {
		t.Fatalf("Shutdown = %v, want nil well inside its 5 s (the poll window is 30 s)", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Errorf("Serve = %v", err)
	}

	// The sessions outlive the listener: the put's rows are there.
	hs2 := httptest.NewServer(srv.Handler())
	client2 := serve.NewClient(hs2.URL)
	if _, err := client2.Quiesce(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	rows, err := client2.Query(ctx, "t", "Out", "")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(rows), "[[1,2],[2,4],[3,6]]"; strings.TrimSpace(got) != want {
		t.Errorf("Out after shutdown = %s, want %s", got, want)
	}
	hs2.Close()
	srv.Close()
	client.HTTP.CloseIdleConnections()
	client2.HTTP.CloseIdleConnections()

	deadline := time.After(10 * time.Second)
	for runtime.NumGoroutine() > before {
		select {
		case <-deadline:
			t.Fatalf("%d goroutines before, %d after shutdown", before, runtime.NumGoroutine())
		default:
			runtime.Gosched()
		}
	}
}
