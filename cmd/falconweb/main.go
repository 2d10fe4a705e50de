// Command falconweb serves the Falcon scenario web service (the
// paper's §6 "cloud-based web service" future work): submit transfer-
// optimization scenarios over HTTP, poll JSON results or stream live
// events over SSE, fetch SVG timelines, and scrape Prometheus-text
// metrics.
//
//	falconweb -addr :8080
//	curl -X POST localhost:8080/api/scenarios \
//	     -d '{"testbed":"hpclab","algorithm":"gd","agents":3}'
//	curl localhost:8080/api/scenarios/s0001
//	curl localhost:8080/api/scenarios/s0001/progress   # live, while running
//	curl -N localhost:8080/api/scenarios/s0001/events  # live SSE stream
//	curl localhost:8080/metrics                        # Prometheus text
//	open localhost:8080/api/scenarios/s0001/throughput.svg
//
// The progress and events endpoints are fed by the scheduler's session
// event stream, so per-agent epoch counts and last-sample metrics are
// available while a scenario is still in flight.
//
// On SIGINT/SIGTERM the server drains gracefully: new submissions are
// refused with 503, SSE streams close with a shutdown event, in-flight
// handlers finish, and running scenarios complete before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/webservice"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	workers := flag.Int("workers", 0, "max concurrent scenario simulations (0 = one per CPU)")
	storeCap := flag.Int("store-cap", webservice.DefaultStoreCap, "max scenarios retained; oldest completed are evicted past this (queued/running stay pinned)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight HTTP handlers")
	flag.Parse()

	svc := webservice.NewWithOptions(webservice.Options{Workers: *workers, StoreCap: *storeCap})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("falconweb: listening on http://%s\n", *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()

	// Drain: refuse new submissions and close SSE streams first, so
	// srv.Shutdown is not held open by long-lived event streams; then
	// wait for in-flight handlers, then for running scenarios.
	fmt.Fprintln(os.Stderr, "falconweb: draining (refusing new scenarios, closing streams)...")
	svc.BeginDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "falconweb: shutdown: %v\n", err)
	}
	svc.Close()
	fmt.Fprintln(os.Stderr, "falconweb: drained, exiting")
}
