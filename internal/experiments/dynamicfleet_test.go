package experiments

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestFleetFlapFileMatchesDoc pins the checked-in scenario to the
// in-code document: examples/scenarios/fleet-flap.json and
// FleetFlapDoc() must canonicalise identically, so the file run by
// `falconsim -scenario`, `fleet -scenario`, and the webservice is
// exactly the experiment registered as fleet-flap.
func TestFleetFlapFileMatchesDoc(t *testing.T) {
	parsed, err := scenario.ParseFile(filepath.Join("..", "..", "examples", "scenarios", "fleet-flap.json"))
	if err != nil {
		t.Fatal(err)
	}
	fileCanon, err := parsed.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	docCanon, err := FleetFlapDoc().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(fileCanon) != string(docCanon) {
		t.Fatalf("fleet-flap.json diverged from FleetFlapDoc():\nfile: %s\ncode: %s", fileCanon, docCanon)
	}
}

// TestDynamicFleetSmoke runs a scaled-down capacity-flap fleet end to
// end and checks the report shape: one row per compiled link horizon
// (wave start + restore), and the fleet's Jain index re-converges
// above 0.95 after each.
func TestDynamicFleetSmoke(t *testing.T) {
	doc := &scenario.Document{
		Version:         scenario.Version,
		Name:            "fleet-flap-smoke",
		Preset:          "fleet",
		Seed:            1,
		DurationSeconds: 240,
		Agents: []scenario.AgentSpec{
			{ID: "hc", Count: 4, Algorithm: "hc", JoinStagger: 2, MaxConcurrency: 8,
				Dataset: &scenario.DatasetSpec{Label: "fleet"}},
			{ID: "gd", Count: 4, Algorithm: "gd", JoinAt: 1, JoinStagger: 2, MaxConcurrency: 8,
				Dataset: &scenario.DatasetSpec{Label: "fleet"}},
		},
		Mutations: []scenario.MutationSpec{
			{At: 120, Kind: scenario.KindCrossTraffic, Rate: 7.5e9, DurationSeconds: 60},
		},
	}
	res, err := DynamicFleet(doc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows, want 2 (wave start + restore): %v", len(res.Rows), res.Rows)
	}
	for _, row := range res.Rows {
		if row[4] == "never" {
			t.Errorf("fleet never re-converged to Jain ≥ 0.95 after the t=%s horizon", row[0])
		}
	}
}

// TestDynamicFleetWithoutLinkMutations: a document with no mutations
// (examples/scenarios/fleet-10k.json is one) runs to a report with no
// refairness rows and the final-window Jain / aggregate note.
func TestDynamicFleetWithoutLinkMutations(t *testing.T) {
	doc := &scenario.Document{
		Version:         scenario.Version,
		Name:            "fleet-still",
		Preset:          "fleet",
		Seed:            1,
		DurationSeconds: 120,
		Agents: []scenario.AgentSpec{
			{ID: "gd", Count: 4, Algorithm: "gd", JoinStagger: 2, MaxConcurrency: 8,
				Dataset: &scenario.DatasetSpec{Label: "fleet"}},
		},
	}
	res, err := DynamicFleet(doc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("%d rows without link mutations, want 0: %v", len(res.Rows), res.Rows)
	}
	if len(res.Notes) != 1 || !strings.HasPrefix(res.Notes[0], "final window [100s, 120s]: Jain ") {
		t.Fatalf("notes = %q, want the final-window note alone", res.Notes)
	}
}

// TestDynamicFleetWorkersTransparent: the worker budget reaches the
// run and never the report. A two-link document (one shard per pinned
// link) with a cross-traffic wave on one of them renders the same bytes
// serially and on four workers.
func TestDynamicFleetWorkersTransparent(t *testing.T) {
	doc := &scenario.Document{
		Version:         scenario.Version,
		Name:            "two-link-flap",
		Preset:          "fleet",
		Seed:            1,
		DurationSeconds: 120,
		Topology: &scenario.TopologySpec{
			Nodes: []string{"src", "sw1", "sw2", "dst"},
			Src:   "src",
			Dst:   "dst",
			Links: []scenario.LinkSpec{
				{ID: "access-src", A: "src", B: "sw1", Capacity: 400e9, Latency: 0.001},
				{ID: "lnk0", A: "sw1", B: "sw2", Capacity: 10e9, Latency: 0.013},
				{ID: "lnk1", A: "sw1", B: "sw2", Capacity: 10e9, Latency: 0.013},
				{ID: "access-dst", A: "sw2", B: "dst", Capacity: 400e9, Latency: 0.001},
			},
		},
		Mutations: []scenario.MutationSpec{
			{At: 60, Kind: scenario.KindCrossTraffic, Link: "lnk1", Rate: 7.5e9, DurationSeconds: 30},
		},
	}
	for _, link := range []string{"lnk0", "lnk1"} {
		for _, algo := range []string{"hc", "gd", "bo"} {
			doc.Agents = append(doc.Agents, scenario.AgentSpec{
				ID: link + "-" + algo + "-", Count: 4, Algorithm: algo, Link: link,
				JoinStagger: 0.5, MaxConcurrency: 8, Dataset: &scenario.DatasetSpec{Label: "fleet"},
			})
		}
	}
	run, err := doc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Shards) != 2 {
		t.Fatalf("document compiled to %d shards, want 2", len(run.Shards))
	}
	var outs [2]string
	for i, workers := range []int{1, 4} {
		res, err := DynamicFleet(doc, workers)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = res.String()
	}
	if outs[0] != outs[1] {
		t.Errorf("report differs between 1 and 4 workers:\n--- 1 ---\n%s\n--- 4 ---\n%s", outs[0], outs[1])
	}
}

// TestFleetFlapRegistered: the experiment resolves through ByID (for
// `reproduce fleet-flap`) but stays outside All(), keeping the
// default reproduce output unchanged.
func TestFleetFlapRegistered(t *testing.T) {
	if _, ok := ByID("fleet-flap"); !ok {
		t.Fatal("fleet-flap not resolvable via ByID")
	}
	for _, r := range All() {
		if r.ID == "fleet-flap" {
			t.Fatal("fleet-flap leaked into All(); default reproduce output would change")
		}
	}
}
