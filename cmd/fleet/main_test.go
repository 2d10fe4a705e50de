package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// TestJSONSummarySessionSeconds runs a small fleet through the command
// with -json and pins sessions_per_sec to what every other reporter
// means by it: simulated session-seconds per wall second, i.e.
// sessions × duration / wall — not sessions / wall. It also pins the
// two keys that answer "is the fleet using the machine?": the decide
// width derived from -shards and the shard count, and cpu_over_wall.
func TestJSONSummarySessionSeconds(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-n", "30", "-duration", "40", "-stagger", "0.1", "-shards", "6", "-links", "2", "-json"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("fleet -json exited %d:\n%s", code, errOut.String())
	}
	var sum struct {
		Sessions        int      `json:"sessions"`
		DurationSeconds float64  `json:"duration_seconds"`
		WallSeconds     float64  `json:"wall_seconds"`
		SessionsPerSec  float64  `json:"sessions_per_sec"`
		CPUOverWall     *float64 `json:"cpu_over_wall"`
		DecideWidth     *int     `json:"decide_width"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &sum); err != nil {
		t.Fatalf("summary is not one JSON object: %v\n%s", err, out.String())
	}
	if sum.Sessions != 30 || sum.DurationSeconds != 40 || sum.WallSeconds <= 0 {
		t.Fatalf("unexpected summary %+v", sum)
	}
	if sum.DecideWidth == nil || *sum.DecideWidth != 3 {
		t.Errorf("decide_width = %v, want 3 (6 workers over 2 shards)", sum.DecideWidth)
	}
	// A run this short may be charged no CPU tick at all.
	if sum.CPUOverWall == nil || !(*sum.CPUOverWall >= 0 && *sum.CPUOverWall < 1024) {
		t.Errorf("cpu_over_wall = %v, want the run's CPU seconds per wall second", sum.CPUOverWall)
	}
	want := float64(sum.Sessions) * sum.DurationSeconds / sum.WallSeconds
	if math.Abs(sum.SessionsPerSec-want) > 1e-9*want {
		t.Errorf("sessions_per_sec = %v, want sessions × duration / wall = %v", sum.SessionsPerSec, want)
	}
}

// TestScenarioRefusesFlagRoadFlags: a scenario document describes its
// own fleet, so a fleet-building flag set beside -scenario is an error
// that names the flag, not a value silently dropped.
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
}
