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
// sessions × duration / wall — not sessions / wall.
func TestJSONSummarySessionSeconds(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldArgs, oldStdout := os.Args, os.Stdout
	os.Args = []string{"fleet", "-n", "30", "-duration", "40", "-stagger", "0.1", "-json"}
	os.Stdout = w
	code := run()
	os.Args, os.Stdout = oldArgs, oldStdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil || code != 0 {
		t.Fatalf("fleet -json exited %d (read error %v)", code, err)
	}
	var sum struct {
		Sessions        int     `json:"sessions"`
		DurationSeconds float64 `json:"duration_seconds"`
		WallSeconds     float64 `json:"wall_seconds"`
		SessionsPerSec  float64 `json:"sessions_per_sec"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(out), &sum); err != nil {
		t.Fatalf("summary is not one JSON object: %v\n%s", err, out)
	}
	if sum.Sessions != 30 || sum.DurationSeconds != 40 || sum.WallSeconds <= 0 {
		t.Fatalf("unexpected summary %+v", sum)
	}
	want := float64(sum.Sessions) * sum.DurationSeconds / sum.WallSeconds
	if math.Abs(sum.SessionsPerSec-want) > 1e-9*want {
		t.Errorf("sessions_per_sec = %v, want sessions × duration / wall = %v", sum.SessionsPerSec, want)
	}
}
