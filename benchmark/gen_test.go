package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the checked-in seed-1 workload files from the generators")

// serviceManifest pins the service mix without carrying ten thousand
// request bodies: the class counts, the digest of the whole list, the
// hot documents and the first request of each class.
type serviceManifest struct {
	Seed    int64                      `json:"seed"`
	Counts  map[string]int             `json:"counts"`
	SSE     int                        `json:"sse_followed"`
	SHA256  string                     `json:"sha256"`
	Prime   []json.RawMessage          `json:"prime"`
	Samples map[string]json.RawMessage `json:"first_of_class"`
}

func manifestOf(seed int64, list *requestList) serviceManifest {
	m := serviceManifest{Seed: seed, Counts: map[string]int{}, SHA256: list.digest(), Prime: list.Prime, Samples: map[string]json.RawMessage{}}
	for _, c := range list.Clients {
		for _, r := range c {
			m.Counts[r.Class]++
			if r.SSE {
				m.SSE++
			}
			if _, ok := m.Samples[r.Class]; !ok {
				m.Samples[r.Class] = r.Body
			}
		}
	}
	return m
}

func indent(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// seed1Files renders what the generators produce for seed 1 at full
// size, keyed by file name under workloads/.
func seed1Files(t *testing.T) map[string][]byte {
	return map[string][]byte{
		"fleet-steady.seed1.json": indent(t, genFleetSteady(1, full.fleetSessions, full.fleetDuration)),
		"fleet-churn.seed1.json":  indent(t, genFleetChurn(1, full.churnSessions, full.fleetDuration)),
		"service-mix.seed1.json":  indent(t, manifestOf(1, genRequests(1, full.service))),
	}
}

func TestGeneratorsMatchCheckedInWorkloads(t *testing.T) {
	for name, want := range seed1Files(t) {
		path := filepath.Join("workloads", name)
		if *update {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run go test -run TestGeneratorsMatchCheckedInWorkloads -update)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s no longer matches its generator: the benchmark's inputs changed (rerun with -update only if that is intended)", path)
		}
	}
}

func TestGeneratedDocumentsParse(t *testing.T) {
	for _, seed := range []int64{1, 2, 77} {
		for name, doc := range map[string]*scenario.Document{
			"steady":     genFleetSteady(seed, full.fleetSessions, full.fleetDuration),
			"steady-ref": genFleetSteady(seed, ref.fleetSessions, ref.fleetDuration),
			"churn":      genFleetChurn(seed, full.churnSessions, full.fleetDuration),
			"churn-toy":  genFleetChurn(seed, toy.churnSessions, toy.fleetDuration),
		} {
			parsed, err := scenario.Parse(mustJSON(doc))
			if err != nil {
				t.Errorf("seed %d %s: %v", seed, name, err)
				continue
			}
			if _, err := parsed.Build(); err != nil {
				t.Errorf("seed %d %s: build: %v", seed, name, err)
			}
		}
		list := genRequests(seed, ref.service)
		for c, reqs := range list.Clients {
			for i, r := range reqs {
				if r.Class != classHeavy && r.Class != classDup {
					continue
				}
				var body struct {
					Scenario json.RawMessage `json:"scenario"`
				}
				if err := json.Unmarshal(r.Body, &body); err != nil {
					t.Fatalf("seed %d client %d request %d: %v", seed, c, i, err)
				}
				if _, err := scenario.Parse(body.Scenario); err != nil {
					t.Errorf("seed %d client %d request %d: %v", seed, c, i, err)
				}
			}
		}
	}
}

func TestFleetRostersHaveTheStatedShape(t *testing.T) {
	count := func(doc *scenario.Document, keep func(scenario.AgentSpec) bool) int {
		n := 0
		for _, a := range doc.Agents {
			if keep(a) {
				n += a.Count
			}
		}
		return n
	}
	all := func(scenario.AgentSpec) bool { return true }
	steady := genFleetSteady(1, full.fleetSessions, full.fleetDuration)
	if n := count(steady, all); n != 10000 {
		t.Errorf("steady fleet has %d sessions, want 10000", n)
	}
	churn := genFleetChurn(1, full.churnSessions, full.fleetDuration)
	total := count(churn, all)
	leavers := count(churn, func(a scenario.AgentSpec) bool { return a.LeaveAt > 0 })
	late := count(churn, func(a scenario.AgentSpec) bool { return a.JoinAt >= full.fleetDuration/2 })
	if total != 10008 || leavers*6 != total || late*6 != total {
		t.Errorf("churn fleet: %d sessions, %d leave, %d join late; want 10008 and a sixth each", total, leavers, late)
	}
	for _, m := range churn.Mutations {
		if end := m.At + m.DurationSeconds; end > full.fleetDuration*(1-windowShare) {
			t.Errorf("wave on %s ends at %v, inside the equilibrium window", m.Link, end)
		}
	}
}

func TestRequestListShape(t *testing.T) {
	sz := full.service
	list := genRequests(1, sz)
	if got, want := list.total(), sz.Hit+sz.Light+sz.Heavy+2*sz.DupPairs; got != want {
		t.Errorf("%d requests, want %d", got, want)
	}
	if len(list.Clients[0]) != len(list.Clients[1]) {
		t.Fatalf("client sequences differ in length: %d and %d", len(list.Clients[0]), len(list.Clients[1]))
	}
	seen := map[string]bool{}
	for i, a := range list.Clients[0] {
		b := list.Clients[1][i]
		if (a.Class == classDup) != (b.Class == classDup) {
			t.Fatalf("index %d: a dup request faces a %s request", i, b.Class)
		}
		if a.Class == classDup && !bytes.Equal(a.Body, b.Body) {
			t.Errorf("index %d: dup pair bodies differ", i)
		}
		for _, r := range []request{a, b} {
			if r.Class == classLight || r.Class == classHeavy {
				if seen[string(r.Body)] {
					t.Errorf("index %d: %s body repeats, so it would not simulate", i, r.Class)
				}
				seen[string(r.Body)] = true
			}
		}
	}
	if list.total() <= 4096 {
		t.Errorf("%d requests do not exceed the service's store cap, so eviction would not run", list.total())
	}
}

func TestSeedsDiffer(t *testing.T) {
	if bytes.Equal(mustJSON(genFleetSteady(1, 300, 60)), mustJSON(genFleetSteady(2, 300, 60))) {
		t.Error("steady fleet: seed 1 and seed 2 generate the same document")
	}
	if bytes.Equal(mustJSON(genFleetChurn(1, 216, 60)), mustJSON(genFleetChurn(2, 216, 60))) {
		t.Error("churn fleet: seed 1 and seed 2 generate the same document")
	}
	if genRequests(1, toy.service).digest() == genRequests(2, toy.service).digest() {
		t.Error("service mix: seed 1 and seed 2 generate the same request list")
	}
	if genRequests(1, toy.service).digest() != genRequests(1, toy.service).digest() {
		t.Error("service mix: one seed generates two request lists")
	}
}
