package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

// TestJSONSummarySessionSeconds runs a small fleet through the command
// with -json and pins sessions_per_sec to what every other reporter
// means by it: simulated session-seconds per wall second, i.e.
// sessions × duration / wall — not sessions / wall. It also pins the
// two keys that answer "is the fleet using the machine?": the decide
// width derived from -shards and the shard count, and cpu_over_wall.
func TestJSONSummarySessionSeconds(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldArgs, oldStdout := os.Args, os.Stdout
	os.Args = []string{"fleet", "-n", "30", "-duration", "40", "-stagger", "0.1", "-shards", "6", "-links", "2", "-json"}
	os.Stdout = w
	code := run()
	os.Args, os.Stdout = oldArgs, oldStdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil || code != 0 {
		t.Fatalf("fleet -json exited %d (read error %v)", code, err)
	}
	var sum struct {
		Sessions        int      `json:"sessions"`
		DurationSeconds float64  `json:"duration_seconds"`
		WallSeconds     float64  `json:"wall_seconds"`
		SessionsPerSec  float64  `json:"sessions_per_sec"`
		CPUOverWall     *float64 `json:"cpu_over_wall"`
		DecideWidth     *int     `json:"decide_width"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(out), &sum); err != nil {
		t.Fatalf("summary is not one JSON object: %v\n%s", err, out)
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
