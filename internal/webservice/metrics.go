package webservice

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets are the request-latency histogram bounds in seconds.
// The low end resolves cache/coalesce hits served from pre-rendered
// snapshots (tens of microseconds); the high end covers queued
// simulations and long-held SSE streams (which carry their own route
// label, so they do not pollute the short-request percentiles).
var latencyBuckets = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// histogram is a fixed-bucket latency histogram maintained with
// atomics: per-bucket non-cumulative counts (accumulated at render
// time), a total count, and the sum in nanoseconds.
type histogram struct {
	buckets [len(latencyBuckets) + 1]atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	sec := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets[:], sec)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(uint64(d.Nanoseconds()))
}

// metricsRegistry is the service's instrumentation state. Counters and
// gauges are atomics so the serving hot path never takes a lock to
// record; the label-keyed request counters live in a sync.Map keyed
// "route|status".
type metricsRegistry struct {
	requests sync.Map // "route|status" -> *atomic.Uint64
	latency  histogram

	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	coalesceHits atomic.Uint64
	simulations  atomic.Uint64
	evictions    atomic.Uint64
	feedRecords  atomic.Uint64
	sseWrites    atomic.Uint64

	queueDepth  atomic.Int64
	workersBusy atomic.Int64
	sseClients  atomic.Int64
	workerLimit int64
}

func (m *metricsRegistry) observeRequest(route string, status int, d time.Duration) {
	key := route + "|" + strconv.Itoa(status)
	c, ok := m.requests.Load(key)
	if !ok {
		c, _ = m.requests.LoadOrStore(key, new(atomic.Uint64))
	}
	c.(*atomic.Uint64).Add(1)
	m.latency.observe(d)
}

// statusWriter captures the response status for the request counter
// while passing Flush through, so instrumented handlers can still
// stream (SSE needs the Flusher).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with per-route request counting and
// latency observation. route is the mux pattern, so the label set is
// small and fixed.
func (s *Service) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.met.observeRequest(route, sw.code, time.Since(start))
	}
}

// handleMetrics renders the Prometheus text exposition format
// (version 0.0.4) from the registry — counters and gauges from
// atomics, scenario-status gauges from a brief scan of the store
// order. No client library is linked; the format is a few fixed
// families written by hand.
func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := &s.met
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	fmt.Fprint(w, "# HELP falcon_http_requests_total HTTP requests served, by route pattern and status code.\n")
	fmt.Fprint(w, "# TYPE falcon_http_requests_total counter\n")
	type labeled struct {
		route, status string
		n             uint64
	}
	var rows []labeled
	m.requests.Range(func(k, v any) bool {
		key := k.(string)
		i := len(key) - 1
		for key[i] != '|' {
			i--
		}
		rows = append(rows, labeled{route: key[:i], status: key[i+1:], n: v.(*atomic.Uint64).Load()})
		return true
	})
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].route != rows[j].route {
			return rows[i].route < rows[j].route
		}
		return rows[i].status < rows[j].status
	})
	for _, r := range rows {
		fmt.Fprintf(w, "falcon_http_requests_total{route=%q,status=%q} %d\n", r.route, r.status, r.n)
	}

	fmt.Fprint(w, "# HELP falcon_http_request_seconds HTTP request latency.\n")
	fmt.Fprint(w, "# TYPE falcon_http_request_seconds histogram\n")
	cum := uint64(0)
	for i, le := range latencyBuckets {
		cum += m.latency.buckets[i].Load()
		fmt.Fprintf(w, "falcon_http_request_seconds_bucket{le=%q} %d\n", formatFloat(le), cum)
	}
	cum += m.latency.buckets[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "falcon_http_request_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "falcon_http_request_seconds_sum %s\n", formatFloat(float64(m.latency.sumNs.Load())/1e9))
	fmt.Fprintf(w, "falcon_http_request_seconds_count %d\n", m.latency.count.Load())

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("falcon_cache_hits_total", "Scenario submissions answered from the content-addressed result cache.", m.cacheHits.Load())
	counter("falcon_cache_misses_total", "Scenario submissions that missed the result cache.", m.cacheMisses.Load())
	counter("falcon_coalesce_hits_total", "Scenario submissions coalesced onto an in-flight identical simulation.", m.coalesceHits.Load())
	counter("falcon_simulations_total", "Simulations actually executed (cache and coalesce hits excluded).", m.simulations.Load())
	counter("falcon_store_evictions_total", "Completed scenarios evicted from the bounded store.", m.evictions.Load())
	counter("falcon_feed_records_total", "Session event records appended to scenario feeds, counted once per finished run.", m.feedRecords.Load())
	counter("falcon_sse_writes_total", "Writes made by server-sent-event streams: one per batch of session frames, one per terminal event.", m.sseWrites.Load())

	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gauge("falcon_queue_depth", "Accepted scenarios waiting for a worker-pool slot.", m.queueDepth.Load())
	gauge("falcon_workers_busy", "Worker-pool slots currently running a simulation.", m.workersBusy.Load())
	gauge("falcon_worker_limit", "Worker-pool size (maximum concurrent simulations).", m.workerLimit)
	gauge("falcon_sse_clients", "Open server-sent-event streams.", m.sseClients.Load())

	s.mu.Lock()
	scs := append([]*Scenario(nil), s.order...)
	s.mu.Unlock()
	byStatus := map[string]int64{"queued": 0, "running": 0, "done": 0, "failed": 0}
	for _, sc := range scs {
		byStatus[sc.snap().Status]++
	}
	fmt.Fprint(w, "# HELP falcon_scenarios Scenarios retained in the store, by status.\n")
	fmt.Fprint(w, "# TYPE falcon_scenarios gauge\n")
	statuses := make([]string, 0, len(byStatus))
	for st := range byStatus {
		statuses = append(statuses, st)
	}
	sort.Strings(statuses)
	for _, st := range statuses {
		fmt.Fprintf(w, "falcon_scenarios{status=%q} %d\n", st, byStatus[st])
	}
	gauge("falcon_store_size", "Total scenarios retained in the store.", int64(len(scs)))
}

// formatFloat renders a float the way Prometheus expects bucket bounds
// and sums: shortest representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
