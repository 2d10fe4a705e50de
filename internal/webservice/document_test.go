package webservice

import (
	"fmt"
	"net/http"
	"testing"
)

// TestDocumentScenarioLifecycle: a full scenario document — roster plus
// a mutation schedule — POSTs through the same endpoint as flat
// requests and runs end to end.
func TestDocumentScenarioLifecycle(t *testing.T) {
	_, ts := startService(t)
	code, out := postScenario(t, ts.URL, `{"scenario": {
		"version": 1,
		"preset": "hpclab",
		"seed": 7,
		"duration_seconds": 240,
		"agents": [
			{"id": "main", "algorithm": "gd", "max_concurrency": 16},
			{"id": "late", "algorithm": "hc", "join_at": 60, "max_concurrency": 16}
		],
		"mutations": [
			{"at": 120, "kind": "link-capacity", "capacity": 5e9}
		]
	}}`)
	if code != http.StatusAccepted {
		t.Fatalf("status = %d, want 202 (%v)", code, out)
	}
	sc := waitDone(t, ts.URL, out["id"])
	if sc.Status != "done" {
		t.Fatalf("status = %s (%s)", sc.Status, sc.Error)
	}
	if len(sc.Results) != 2 {
		t.Fatalf("results = %+v, want 2 agents", sc.Results)
	}
	ids := map[string]bool{}
	for _, r := range sc.Results {
		ids[r.ID] = true
		if r.MeanGbps <= 0 {
			t.Errorf("agent %s mean = %v Gbps", r.ID, r.MeanGbps)
		}
	}
	if !ids["main"] || !ids["late"] {
		t.Fatalf("agent IDs from the document roster missing: %+v", sc.Results)
	}
}

// TestMutationScheduleNeverAliases is the cache regression for the
// scenario subsystem: two documents identical except for their mutation
// schedule must hash to different cache keys, run separately, and a
// byte-identical resubmission must hit the cache.
func TestMutationScheduleNeverAliases(t *testing.T) {
	_, ts := startService(t)
	base := `{"scenario": {"preset": "hpclab", "seed": 3, "duration_seconds": 180,
		"agents": [{"count": 2, "algorithm": "gd"}]%s}}`
	calm := fmt.Sprintf(base, ``)
	// hpclab's link is 40 Gbps with a ≈25.7 Gbps disk bottleneck, so the
	// wave must claim enough to push the link below the disk: 32 Gbps
	// leaves 8 Gbps for most of the measured second half.
	flap := fmt.Sprintf(base, `,
		"mutations": [{"at": 90, "kind": "cross-traffic", "rate": 32e9, "duration_seconds": 80}]`)

	_, out1 := postScenario(t, ts.URL, calm)
	sc1 := waitDone(t, ts.URL, out1["id"])
	if sc1.Status != "done" || sc1.Cached {
		t.Fatalf("calm run: status=%s cached=%v (%s)", sc1.Status, sc1.Cached, sc1.Error)
	}

	// Same document plus a mutation schedule: must not alias the calm
	// result. The 8 Gbps wave halves usable capacity for a third of the
	// run, so aliasing would also be visible in the means.
	_, out2 := postScenario(t, ts.URL, flap)
	sc2 := waitDone(t, ts.URL, out2["id"])
	if sc2.Status != "done" {
		t.Fatalf("flap run: %s (%s)", sc2.Status, sc2.Error)
	}
	if sc2.Cached {
		t.Fatal("document with a mutation schedule aliased the mutation-free cache entry")
	}
	var calmMean, flapMean float64
	for _, r := range sc1.Results {
		calmMean += r.MeanGbps
	}
	for _, r := range sc2.Results {
		flapMean += r.MeanGbps
	}
	if flapMean >= calmMean {
		t.Fatalf("cross-traffic wave did not cost throughput: calm %v vs flap %v Gbps", calmMean, flapMean)
	}

	// Byte-identical resubmission is the same simulation: cache hit.
	_, out3 := postScenario(t, ts.URL, flap)
	sc3 := waitDone(t, ts.URL, out3["id"])
	if !sc3.Cached {
		t.Fatal("identical resubmission missed the cache")
	}
	if sc3.JainIndex != sc2.JainIndex {
		t.Fatalf("cached Jain %v ≠ original %v", sc3.JainIndex, sc2.JainIndex)
	}
}

// TestFlatAndDocumentShareCache: a flat request and the document it
// lowers onto are the same simulation and deduplicate.
func TestFlatAndDocumentShareCache(t *testing.T) {
	_, ts := startService(t)
	_, out1 := postScenario(t, ts.URL,
		`{"testbed": "emulab", "algorithm": "gd", "duration_seconds": 120}`)
	sc1 := waitDone(t, ts.URL, out1["id"])
	if sc1.Status != "done" || sc1.Cached {
		t.Fatalf("flat run: status=%s cached=%v", sc1.Status, sc1.Cached)
	}
	// The document form of the same request — including the flat path's
	// defaults (seed 1, stagger 120, max_concurrency 64), which
	// normalise bakes into the lowered document.
	_, out2 := postScenario(t, ts.URL, `{"scenario": {"preset": "emulab", "seed": 1,
		"duration_seconds": 120,
		"agents": [{"algorithm": "gd", "join_stagger": 120, "max_concurrency": 64}]}}`)
	sc2 := waitDone(t, ts.URL, out2["id"])
	if sc2.Status != "done" {
		t.Fatalf("document run: %s (%s)", sc2.Status, sc2.Error)
	}
	if !sc2.Cached {
		t.Fatal("equivalent document form missed the flat request's cache entry")
	}
}

// TestDocumentValidation: malformed documents and flat/document mixing
// are rejected up front with 400, and service-level caps apply to
// documents.
func TestDocumentValidation(t *testing.T) {
	_, ts := startService(t)
	cases := []string{
		// Document plus flat fields.
		`{"testbed": "emulab", "scenario": {"preset": "emulab", "agents": [{}]}}`,
		// Invalid document (schema errors surface as 400).
		`{"scenario": {"preset": "atlantis", "agents": [{}]}}`,
		`{"scenario": {"preset": "emulab", "agents": []}}`,
		`{"scenario": {"preset": "emulab", "agents": [{}],
			"mutations": [{"at": -5, "kind": "rtt", "rtt": 0.1}]}}`,
		// Service caps: roster and duration bounds.
		`{"scenario": {"preset": "fleet", "agents": [{"count": 513}]}}`,
		`{"scenario": {"preset": "emulab", "duration_seconds": 86400, "agents": [{}]}}`,
		// Dataset bytes overflowing int64: count × size, or a growth.
		`{"scenario": {"preset": "emulab", "agents": [{"dataset": {"count": 2000000000, "size": 5000000000}}]}}`,
		`{"scenario": {"preset": "emulab", "agents": [{"id": "a"}],
			"mutations": [{"at": 1, "kind": "grow-dataset", "agent": "a", "grow": {"count": 4, "size": 4611686018427387904}}]}}`,
	}
	for _, c := range cases {
		if code, out := postScenario(t, ts.URL, c); code != http.StatusBadRequest {
			t.Errorf("payload %.60s...: status %d (%v), want 400", c, code, out)
		}
	}
}

// TestHugeDatasetDocumentRuns: a dataset of two billion files costs the
// service nothing — the document is accepted and runs to completion.
func TestHugeDatasetDocumentRuns(t *testing.T) {
	_, ts := startService(t)
	code, out := postScenario(t, ts.URL, `{"scenario": {"preset": "emulab", "duration_seconds": 60,
		"agents": [{"dataset": {"count": 2000000000}}]}}`)
	if code != http.StatusAccepted {
		t.Fatalf("status = %d, want 202 (%v)", code, out)
	}
	if sc := waitDone(t, ts.URL, out["id"]); sc.Status != "done" {
		t.Fatalf("status = %s (%s)", sc.Status, sc.Error)
	}
}
