package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// flagRoadGoldens pins the command's stdout for flag sets of every
// controller family. The hashes were computed with the command as it
// was before its flags lowered onto a scenario document, when it built
// the run's engine, tasks and joins by hand: the lowering changed no
// byte. bo is absent: the hand-built run seeded BO agents from
// math/rand and documents build them with core.NewFleetAgent's stream;
// TestFlagRoadMatchesDocument covers it instead.
var flagRoadGoldens = []struct {
	args   string
	sha256 string
}{
	{"-testbed hpclab -agents 3 -stagger 60 -duration 400 -seed 3 -algo gd", "529860cd954868467df1d273cdc2ffcb6e883d306e1f570a24c919c37bf3daff"},
	{"-testbed hpclab -agents 3 -stagger 60 -duration 400 -seed 3 -algo hc", "7d7e4d1ba633f75d9be6805bb5e7b6a156a40bef13aa264d0535651365d60367"},
	{"-testbed hpclab -agents 3 -stagger 60 -duration 400 -seed 3 -algo fixed:8", "b1e5785e98f25381529569e8dc065b16f882ae64a11933038e2639cdc97654a9"},
	{"-testbed hpclab -agents 3 -stagger 60 -duration 400 -seed 3 -algo globus", "d1417b1002403c8a2a3d88ad6024a45053a6271baf870135f856a7e09fef4581"},
	{"-testbed hpclab -agents 3 -stagger 60 -duration 400 -seed 3 -algo harp", "ff870df47da0b0129e6b6e666fc588f14f884ec8b15f443045b9ad23eb5860d0"},
	{"", "4f76832923f0ce093d8cf6642d9d4bf139c96b201657b5c702869956b2691115"},
	{"-testbed emulab -algo hc -agents 2 -stagger 30 -duration 120 -events", "de517ca548298a8183634abca4e8f61699c5ee538497c07b7b758732e7f7a303"},
}

// runOK runs the command and fails the test unless it exits 0.
func runOK(t *testing.T, args ...string) []byte {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("falconsim %s exited %d:\n%s", strings.Join(args, " "), code, errOut.String())
	}
	return out.Bytes()
}

// TestFlagRoadGolden pins the flag road's stdout, flag parsing and
// lowering included.
func TestFlagRoadGolden(t *testing.T) {
	for _, g := range flagRoadGoldens {
		sum := sha256.Sum256(runOK(t, strings.Fields(g.args)...))
		if got := hex.EncodeToString(sum[:]); got != g.sha256 {
			t.Errorf("falconsim %s stdout sha256 = %s, want %s", g.args, got, g.sha256)
		}
	}
}

// TestFlagRoadMatchesDocument: the flags print what -scenario prints
// for the flat document written out here by hand — one unnamed spec of
// Count agents joining join_stagger apart — in every line but the
// header. bo is the case the goldens cannot pin.
func TestFlagRoadMatchesDocument(t *testing.T) {
	doc := filepath.Join(t.TempDir(), "bo.json")
	body := `{"preset": "hpclab", "seed": 3, "duration_seconds": 400,
		"agents": [{"count": 3, "algorithm": "bo", "join_stagger": 60}]}`
	if err := os.WriteFile(doc, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	flags := strings.Split(string(runOK(t, "-testbed", "hpclab", "-agents", "3", "-stagger", "60", "-duration", "400", "-seed", "3", "-algo", "bo")), "\n")
	scen := strings.Split(string(runOK(t, "-scenario", doc)), "\n")
	if len(flags) != len(scen) {
		t.Fatalf("flag road prints %d lines, -scenario %d", len(flags), len(scen))
	}
	headers := 0
	for i := range flags {
		if flags[i] == scen[i] {
			continue
		}
		if headers++; flags[i] != "bo on hpclab, 3 agent(s), 400s" {
			t.Errorf("line %d: flag road %q, -scenario %q", i, flags[i], scen[i])
		}
	}
	if headers != 1 {
		t.Errorf("%d lines differ, want only the header", headers)
	}
}

// TestScenarioRefusesFlagRoadFlags: beside -scenario, each flag that
// builds a run exits 1 and is named, rather than silently ignored.
func TestScenarioRefusesFlagRoadFlags(t *testing.T) {
	for _, name := range flagRoadOnly {
		var out, errOut bytes.Buffer
		args := []string{"-scenario", "../../examples/scenarios/emulab.json", "-" + name, "2"}
		if code := run(args, &out, &errOut); code != 1 {
			t.Errorf("%v exited %d, want 1", args, code)
		}
		if !strings.Contains(errOut.String(), "-"+name) || out.Len() != 0 {
			t.Errorf("%v: stderr %q does not name the flag, or stdout got %q", args, errOut.String(), out.String())
		}
	}
}

// TestScenarioRefusesSeedZero: a document reads seed 0 as its default,
// 1, so -seed 0 beside -scenario exits 1 naming the flag rather than
// print the seed-1 run.
func TestScenarioRefusesSeedZero(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-scenario", "../../examples/scenarios/emulab.json", "-seed", "0"}
	if code := run(args, &out, &errOut); code != 1 {
		t.Errorf("%v exited %d, want 1", args, code)
	}
	if !strings.Contains(errOut.String(), "-seed 0") || out.Len() != 0 {
		t.Errorf("%v: stderr %q does not name -seed 0, or stdout got %d bytes", args, errOut.String(), out.Len())
	}
}
