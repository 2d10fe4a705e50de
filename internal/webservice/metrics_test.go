package webservice

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// scrape fetches /metrics and returns the parsed single-value series
// (histogram buckets and labeled counters keyed by their full series
// string).
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndex(line, " ")
		if i < 0 {
			t.Fatalf("unparsable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsEndpoint drives a small workload and checks the exposed
// families: request counters by route/status, the latency histogram's
// internal consistency, cache/coalesce/simulation counters, and the
// scenario-status gauges.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := startService(t)
	req := `{"testbed":"emulab","algorithm":"gd","duration_seconds":60}`
	_, first := postScenario(t, ts.URL, req)
	waitDone(t, ts.URL, first["id"])
	_, second := postScenario(t, ts.URL, req) // cache hit
	waitDone(t, ts.URL, second["id"])
	postScenario(t, ts.URL, `{"testbed":"atlantis"}`) // 400

	m := scrape(t, ts.URL)

	if got := m[`falcon_http_requests_total{route="POST /api/scenarios",status="202"}`]; got != 2 {
		t.Fatalf("202 creates = %v, want 2", got)
	}
	if got := m[`falcon_http_requests_total{route="POST /api/scenarios",status="400"}`]; got != 1 {
		t.Fatalf("400 creates = %v, want 1", got)
	}
	if m[`falcon_http_requests_total{route="GET /api/scenarios/{id}",status="200"}`] < 2 {
		t.Fatal("scenario GETs unaccounted")
	}
	if got := m["falcon_cache_hits_total"]; got != 1 {
		t.Fatalf("cache hits = %v, want 1", got)
	}
	if got := m["falcon_cache_misses_total"]; got != 1 {
		t.Fatalf("cache misses = %v, want 1", got)
	}
	if got := m["falcon_simulations_total"]; got != 1 {
		t.Fatalf("simulations = %v, want 1", got)
	}
	if got := m["falcon_worker_limit"]; got < 1 {
		t.Fatalf("worker limit = %v", got)
	}
	if got := m[`falcon_scenarios{status="done"}`]; got != 2 {
		t.Fatalf("done scenarios gauge = %v, want 2", got)
	}
	if got := m["falcon_store_size"]; got != 2 {
		t.Fatalf("store size = %v, want 2", got)
	}

	// Histogram consistency: +Inf bucket equals the count, buckets are
	// cumulative (non-decreasing), and the count covers every request
	// made before the scrape (the scrape itself is not yet recorded —
	// its observation happens after the handler returns).
	count := m["falcon_http_request_seconds_count"]
	if inf := m[`falcon_http_request_seconds_bucket{le="+Inf"}`]; inf != count {
		t.Fatalf("+Inf bucket %v ≠ count %v", inf, count)
	}
	if count < 5 {
		t.Fatalf("histogram count %v, want ≥5 requests", count)
	}
	if m["falcon_http_request_seconds_sum"] <= 0 {
		t.Fatal("histogram sum not positive")
	}
	// Check the checked-in bucket bounds appear and are cumulative.
	cum := -1.0
	for _, le := range latencyBuckets {
		series := `falcon_http_request_seconds_bucket{le="` + formatFloat(le) + `"}`
		v, ok := m[series]
		if !ok {
			t.Fatalf("missing bucket %s", series)
		}
		if v < cum {
			t.Fatalf("bucket %s = %v below previous %v (not cumulative)", series, v, cum)
		}
		cum = v
	}
}

// TestFeedAndSSEWriteCounters pins falcon_feed_records_total (bumped
// once per finished run by its feed length) and falcon_sse_writes_total
// (one per stream write), whose ratio is records per SSE write.
func TestFeedAndSSEWriteCounters(t *testing.T) {
	_, ts := startService(t)
	_, out := postScenario(t, ts.URL, `{"testbed":"emulab","algorithm":"gd","duration_seconds":120}`)
	resp, err := http.Get(ts.URL + "/api/scenarios/" + out["id"] + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp)
	resp.Body.Close()

	m := scrape(t, ts.URL)
	if got, want := m["falcon_feed_records_total"], float64(len(events)-1); got != want {
		t.Fatalf("falcon_feed_records_total = %v, want the %v streamed session events", got, want)
	}
	// At least one write carries session frames and one the done event;
	// batching keeps the writes well below one per record.
	if got := m["falcon_sse_writes_total"]; got < 2 || got > float64(len(events)) {
		t.Fatalf("falcon_sse_writes_total = %v for %d events", got, len(events))
	}
}
