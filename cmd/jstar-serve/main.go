// Command jstar-serve hosts JStar programs as a multi-tenant network
// service: each tenant is a compiled program with a live incremental
// Session, and clients stream tuples in, force quiescent boundaries, run
// prefix queries, and subscribe to quiesced-state changes over HTTP.
//
// Over plain TCP the server speaks HTTP/1.1; give it -tls-cert/-tls-key
// and the stdlib negotiates HTTP/2 automatically. See the README's
// "Serving" section for the endpoint reference.
//
//	jstar-serve -addr :8080
//	jstar-serve -addr :8443 -tls-cert cert.pem -tls-key key.pem
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/jstar-lang/jstar/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		maxTenants  = flag.Int("max-tenants", 64, "maximum concurrently hosted tenant sessions")
		maxInflight = flag.Int("max-inflight-puts", 32, "default per-tenant cap on concurrent ingestion requests")
		pollTimeout = flag.Duration("long-poll-timeout", 30*time.Second, "default subscription long-poll window")
		metricsCSV  = flag.String("metrics-csv", "", "append one CSV row per served request to this file")
		tlsCert     = flag.String("tls-cert", "", "TLS certificate file (enables HTTPS and HTTP/2)")
		tlsKey      = flag.String("tls-key", "", "TLS key file")
		drainWait   = flag.Duration("drain", 10*time.Second, "graceful shutdown window for in-flight requests")
	)
	flag.Parse()
	if err := run(*addr, *maxTenants, *maxInflight, *pollTimeout, *metricsCSV, *tlsCert, *tlsKey, *drainWait); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(addr string, maxTenants, maxInflight int, pollTimeout time.Duration, metricsCSV, tlsCert, tlsKey string, drainWait time.Duration) error {
	cfg := serve.Config{
		MaxTenants:      maxTenants,
		MaxInflightPuts: maxInflight,
		LongPollTimeout: pollTimeout,
	}
	if metricsCSV != "" {
		f, err := os.OpenFile(metricsCSV, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.MetricsCSV = f
	}
	srv := serve.New(cfg)
	defer srv.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler: srv.Handler(),
		// Streaming endpoints (SSE, long-poll) must outlive short write
		// deadlines; bound only the header read.
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Shutdown waits for active handlers; a parked long-poll or an open
	// event stream would hold it for the whole drain window.
	hs.RegisterOnShutdown(srv.Drain)
	errCh := make(chan error, 1)
	go func() {
		if tlsCert != "" || tlsKey != "" {
			log.Printf("jstar-serve: listening on https://%s (HTTP/2)", ln.Addr())
			errCh <- hs.ServeTLS(ln, tlsCert, tlsKey)
			return
		}
		log.Printf("jstar-serve: listening on http://%s", ln.Addr())
		errCh <- hs.Serve(ln)
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		log.Printf("jstar-serve: %v, draining for up to %v", s, drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), drainWait)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		return nil
	}
}
