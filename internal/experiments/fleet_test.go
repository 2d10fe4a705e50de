package experiments

import (
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestFleetSmall runs a scaled-down fleet and checks the scenario's
// core promises: the run is deterministic for a fixed config, the
// fleet reaches a fair equilibrium, and the shared bottleneck is well
// utilized. The full 500-session acceptance run lives in cmd/fleet.
func TestFleetSmall(t *testing.T) {
	render := func() string {
		out, _ := fleetStreamed(t, fleetDoc(t, 45, 300, 0.5, 3, 1), 0)
		return out
	}
	out := render()
	if out != render() {
		t.Fatal("same fleet flags produced different output across runs")
	}
	if !strings.Contains(out, "fleet Jain ≥0.9") {
		t.Fatalf("fleet never reached Jain 0.9:\n%s", out)
	}
	for _, algo := range []string{"hc", "gd", "bo"} {
		if !strings.Contains(out, algo) {
			t.Fatalf("missing %s row:\n%s", algo, out)
		}
	}
}

// TestFleetDocRefusesBadFlags: flags the document would silently
// replace by its defaults, or that leave sessions unjoined, are errors;
// and Fleet refuses a document whose roster is not a lowered fleet's.
func TestFleetDocRefusesBadFlags(t *testing.T) {
	hgb := []string{"hc", "gd", "bo"}
	for _, c := range []struct {
		name              string
		n, maxn           int
		duration, stagger float64
		seed              int64
		algos             []string
	}{
		{"last join past horizon", 11, 8, 10, 1, 1, hgb},
		{"zero horizon", 1, 8, 0, 0.5, 1, hgb},
		{"no algorithms", 5, 8, 60, 0.5, 1, nil},
		{"zero domain", 5, 0, 60, 0.5, 1, hgb},
		{"no sessions", 0, 8, 60, 0.5, 1, hgb},
		{"negative sessions", -5, 8, 60, 0.5, 1, hgb},
		{"zero seed", 5, 8, 60, 0.5, 0, hgb},
	} {
		if _, err := FleetDoc(c.n, c.duration, c.stagger, c.maxn, c.seed, c.algos, 1); err == nil {
			t.Errorf("%s: FleetDoc accepted it", c.name)
		}
	}
	doc := &scenario.Document{Preset: "fleet", DurationSeconds: 60, Agents: []scenario.AgentSpec{{Count: 2}}}
	if _, err := Fleet(doc, 1); err == nil {
		t.Error("Fleet ran agents not named s<index>-<algo>")
	}
}

// TestFleetNotRegistered pins that the fleet workload stays out of the
// reproduce registry: it is a stress driver, and registering it would
// change reproduce's byte-exact output.
func TestFleetNotRegistered(t *testing.T) {
	if _, ok := ByID("fleet"); ok {
		t.Fatal("fleet must not be registered in All()/ByID — it would change reproduce output")
	}
}
