package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// fleetGolden is the SHA-256 of what `fleet -n 600 -links 2 -duration
// 120 -stagger 0.1 -seed 1` prints: a copy of fleetGolden in
// internal/experiments/golden_test.go (TestFleetFlagGolden), which
// pins the same report one layer down.
const fleetGolden = "01c0ad16918ad95bfd0758cd2e09bf5fd7c915dd1c5b671232c72bbffe870d67"

// TestFlagRoadGolden pins the command's stdout, flag parsing and
// lowering included, to TestFleetFlagGolden's hash.
func TestFlagRoadGolden(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-n", "600", "-links", "2", "-duration", "120", "-stagger", "0.1", "-seed", "1"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("fleet exited %d:\n%s", code, errOut.String())
	}
	sum := sha256.Sum256(out.Bytes())
	if got := hex.EncodeToString(sum[:]); got != fleetGolden {
		t.Errorf("fleet %s stdout sha256 = %s, want %s", strings.Join(args, " "), got, fleetGolden)
	}
}

// TestFlagRoadMatchesDocument: on one link, the command prints the
// report of a document written out here by hand — one "s%04d-<algo>"
// agent per session, the hc/gd/bo mix joining at i·stagger under the
// document's seed and its default task — so the flags' lowering is
// checked against an independent statement of it.
func TestFlagRoadMatchesDocument(t *testing.T) {
	const n, stagger = 60, 0.5
	var out, errOut bytes.Buffer
	if code := run([]string{"-n", "60", "-links", "1", "-duration", "120", "-stagger", "0.5", "-seed", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("fleet exited %d:\n%s", code, errOut.String())
	}
	doc := &scenario.Document{Preset: "fleet", Seed: 1, DurationSeconds: 120}
	for i := 0; i < n; i++ {
		algo := []string{"hc", "gd", "bo"}[i%3]
		doc.Agents = append(doc.Agents, scenario.AgentSpec{
			ID: fmt.Sprintf("s%04d-%s", i, algo), Algorithm: algo, JoinAt: float64(i) * stagger, MaxConcurrency: 8})
	}
	fr, err := experiments.Fleet(doc, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := fr.Report()
	if want := res.String(); out.String() != want {
		t.Errorf("fleet stdout differs from the hand-written document's report:\n--- fleet ---\n%s\n--- document ---\n%s", out.String(), want)
	}
}

// TestJSONSummarySessionSeconds runs a small fleet through the command
// with -json and pins sessions_per_sec to what the repo benchmark
// means by it: simulated session-seconds per wall second, where a
// session counts from its join to the horizon — Σ(duration − join) /
// wall, not sessions × duration / wall, which a 1 s stagger over 30
// sessions in 40 s overstates by more than half. It also pins the two
// keys that answer "is the fleet using the machine?": the decide width
// derived from -shards and the shard count, and cpu_over_wall.
func TestJSONSummarySessionSeconds(t *testing.T) {
	const n, duration, stagger = 30, 40.0, 1.0
	var out, errOut bytes.Buffer
	args := []string{"-n", "30", "-duration", "40", "-stagger", "1", "-shards", "6", "-links", "2", "-json"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("fleet -json exited %d:\n%s", code, errOut.String())
	}
	var sum struct {
		Sessions        int      `json:"sessions"`
		DurationSeconds float64  `json:"duration_seconds"`
		SessionSeconds  float64  `json:"session_seconds"`
		WallSeconds     float64  `json:"wall_seconds"`
		SessionsPerSec  float64  `json:"sessions_per_sec"`
		CPUOverWall     *float64 `json:"cpu_over_wall"`
		DecideWidth     *int     `json:"decide_width"`
		Fanouts         *uint64  `json:"fanouts"`
		Isolated        *uint64  `json:"isolated_decisions"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &sum); err != nil {
		t.Fatalf("summary is not one JSON object: %v\n%s", err, out.String())
	}
	if sum.Sessions != n || sum.DurationSeconds != duration || sum.WallSeconds <= 0 {
		t.Fatalf("unexpected summary %+v", sum)
	}
	if sum.DecideWidth == nil || *sum.DecideWidth != 3 {
		t.Errorf("decide_width = %v, want 3 (6 workers over 2 shards)", sum.DecideWidth)
	}
	// Every session is a Falcon agent, which decides in isolation; 15
	// sessions a shard are too few to fan out.
	if sum.Isolated == nil || *sum.Isolated == 0 || sum.Fanouts == nil || *sum.Fanouts != 0 {
		t.Errorf("isolated_decisions = %v, fanouts = %v, want some isolated decisions and no fan-out", sum.Isolated, sum.Fanouts)
	}
	// A run this short may be charged no CPU tick at all.
	if sum.CPUOverWall == nil || !(*sum.CPUOverWall >= 0 && *sum.CPUOverWall < 1024) {
		t.Errorf("cpu_over_wall = %v, want the run's CPU seconds per wall second", sum.CPUOverWall)
	}
	sessionSeconds := 0.0
	for i := 0; i < n; i++ {
		sessionSeconds += duration - float64(i)*stagger
	}
	if sum.SessionSeconds != sessionSeconds {
		t.Errorf("session_seconds = %v, want Σ(duration − join) = %v", sum.SessionSeconds, sessionSeconds)
	}
	want := sessionSeconds / sum.WallSeconds
	if math.Abs(sum.SessionsPerSec-want) > 1e-9*want {
		t.Errorf("sessions_per_sec = %v, want Σ(duration − join) / wall = %v (sessions × duration / wall would be %v)",
			sum.SessionsPerSec, want, n*duration/sum.WallSeconds)
	}
}

// smallDoc writes a 6-session, 30 s fleet document and returns its path.
func smallDoc(t *testing.T) string {
	t.Helper()
	doc := filepath.Join(t.TempDir(), "small.json")
	if err := os.WriteFile(doc, []byte(`{"preset": "fleet", "duration_seconds": 30,
		"agents": [{"id": "s", "count": 6, "algorithm": "bo", "max_concurrency": 8}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBothRoadsPrintWork: the flag road and the document road each
// print one stderr line with the simulation's cpu/wall, its decide
// width and its fan-outs over its loop heads.
func TestBothRoadsPrintWork(t *testing.T) {
	doc := smallDoc(t)
	work := regexp.MustCompile(`(?m)^fleet: cpu/wall [0-9.]+, decide width 2, 0 fan-outs over [1-9][0-9]* loop heads$`)
	for _, args := range [][]string{
		{"-n", "6", "-duration", "30", "-stagger", "1", "-shards", "2"},
		{"-scenario", doc, "-shards", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("%v exited %d:\n%s", args, code, errOut.String())
		}
		if got := work.FindAllString(errOut.String(), -1); len(got) != 1 {
			t.Errorf("%v: %d work lines on stderr, want 1:\n%s", args, len(got), errOut.String())
		}
	}
}

// TestScenarioRefusesSeedZero: a document reads seed 0 as its default,
// 1, so -seed 0 beside -scenario exits 1 naming the flag rather than
// run the seed-1 fleet.
func TestScenarioRefusesSeedZero(t *testing.T) {
	doc := smallDoc(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"-scenario", doc, "-seed", "0"}, &out, &errOut); code != 1 {
		t.Errorf("-seed 0 beside -scenario exited %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "-seed 0") || out.Len() != 0 {
		t.Errorf("stderr %q does not name -seed 0, or stdout got %d bytes", errOut.String(), out.Len())
	}
}

// TestScenarioRefusesFlagRoadFlags: a scenario document describes its
// own fleet, so a fleet-building flag set beside -scenario is an error
// that names the flag, not a value silently dropped. -maxheap checks
// the process, not the fleet, so the document road honours it: the run
// prints its peak heap line and exits 1 past the budget.
func TestScenarioRefusesFlagRoadFlags(t *testing.T) {
	doc := filepath.Join("..", "..", "examples", "scenarios", "fleet-flap.json")
	var out, errOut bytes.Buffer
	code := run([]string{"-scenario", doc, "-n", "5"}, &out, &errOut)
	if code == 0 {
		t.Fatalf("fleet -scenario … -n 5 exited 0:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "-n") || !strings.Contains(errOut.String(), "-scenario") {
		t.Errorf("error does not name -n and -scenario: %q", errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("refused run wrote a report:\n%s", out.String())
	}

	small := filepath.Join(t.TempDir(), "small-flap.json")
	if err := os.WriteFile(small, []byte(`{"preset": "fleet", "duration_seconds": 60,
		"agents": [{"id": "s", "count": 6, "algorithm": "bo", "join_stagger": 1, "max_concurrency": 8}],
		"mutations": [{"at": 30, "kind": "cross-traffic", "rate": 5e9, "duration_seconds": 10}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		budget string
		code   int
	}{{"0", 0}, {"1", 1}} {
		out.Reset()
		errOut.Reset()
		if got := run([]string{"-scenario", small, "-maxheap", tc.budget}, &out, &errOut); got != tc.code {
			t.Fatalf("-maxheap %s exited %d, want %d:\n%s", tc.budget, got, tc.code, errOut.String())
		}
		if !strings.Contains(errOut.String(), "peak heap") || !strings.Contains(errOut.String(), "B/session") {
			t.Errorf("-maxheap %s: no peak heap line on stderr:\n%s", tc.budget, errOut.String())
		}
		if exceeded := strings.Contains(errOut.String(), "exceeds -maxheap budget"); exceeded != (tc.code == 1) {
			t.Errorf("-maxheap %s: budget message present = %v, want %v:\n%s", tc.budget, exceeded, tc.code == 1, errOut.String())
		}
		if out.Len() == 0 {
			t.Errorf("-maxheap %s: no report on stdout", tc.budget)
		}
	}
}
