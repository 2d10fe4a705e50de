package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/parallel"
	"repro/internal/scenario"
)

// reproduceGolden is the SHA-256 of `reproduce -seed 1` stdout, pinned
// at the commit before task handles replaced ID lookups in the engine.
// Every worker width must render these exact bytes;
// a physics or ordering change that moves them is either a bug or a
// deliberate re-baseline (regenerate with
// `go run ./cmd/reproduce -seed 1 | sha256sum`).
const reproduceGolden = "36c4ea8f846489069ec9716f7c00855d164ad36bb5037d932ac408281c8fdd4d"

// renderReproduce writes what cmd/reproduce prints for the full suite.
func renderReproduce(t *testing.T, w io.Writer, seed int64, workers int) {
	t.Helper()
	old := parallel.Workers()
	parallel.SetWorkers(workers)
	defer parallel.SetWorkers(old)
	for _, out := range Run(All(), seed, workers) {
		fmt.Fprintf(w, "running %s (%s)...\n", out.Runner.ID, out.Runner.Name)
		if out.Err != nil {
			t.Fatalf("%s: %v", out.Runner.ID, out.Err)
		}
		if err := out.Result.Render(w); err != nil {
			t.Fatalf("%s: %v", out.Runner.ID, err)
		}
		fmt.Fprintln(w)
	}
}

// TestReproduceGolden pins the full `reproduce -seed 1` render, at
// -parallel 1 and 8, to the checked-in hash.
func TestReproduceGolden(t *testing.T) {
	for _, workers := range []int{1, 8} {
		h := sha256.New()
		renderReproduce(t, h, 1, workers)
		if got := hex.EncodeToString(h.Sum(nil)); got != reproduceGolden {
			t.Errorf("parallel=%d: reproduce -seed 1 sha256 = %s, want %s", workers, got, reproduceGolden)
		}
	}
}

// fleetGolden is the SHA-256 of the rendered Fleet report for a
// 600-session, 2-link, 120 s, 0.1 s-stagger, seed-1 fleet: what
// `fleet -n 600 -links 2 -duration 120 -stagger 0.1 -seed 1` prints.
// The streaming report and the full-timeline oracle render the same
// bytes, so one constant pins both. It pins the flag road (FleetDoc's
// lowering and Fleet's report), which the scenario package's
// TestFleetGolden does not reach.
const fleetGolden = "01c0ad16918ad95bfd0758cd2e09bf5fd7c915dd1c5b671232c72bbffe870d67"

// TestFleetFlagGolden pins the lowered flag set's report, streamed and
// recomputed from full timelines, to the checked-in hash.
func TestFleetFlagGolden(t *testing.T) {
	streamed, _ := fleetStreamed(t, fleetDoc(t, 600, 120, 0.1, 1, 2), 0)
	full, _ := fleetFromTimeline(t, fleetDoc(t, 600, 120, 0.1, 1, 2))
	for leg, out := range map[string]string{"streamed": streamed, "full-timeline": full} {
		sum := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(sum[:]); got != fleetGolden {
			t.Errorf("%s: fleet report sha256 = %s, want %s", leg, got, fleetGolden)
		}
	}
}

// dynamicFleetGolden is the SHA-256 of the time-to-refairness report
// for examples/scenarios/fleet-flap.json: what `fleet -scenario
// examples/scenarios/fleet-flap.json` prints on stdout (its timing and
// memory lines go to stderr). It is the one golden over DynamicFleet.
const dynamicFleetGolden = "a4b43823437d56b313791fe0e31938c243666f976ab91b3f5cc0815fbbfaafdb"

// TestDynamicFleetGolden pins DynamicFleet's report on the checked-in
// capacity-flap document, serial and at 4 workers, to the checked-in
// hash.
func TestDynamicFleetGolden(t *testing.T) {
	for _, workers := range []int{1, 4} {
		doc, err := scenario.ParseFile(filepath.Join("..", "..", "examples", "scenarios", "fleet-flap.json"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := DynamicFleet(doc, workers)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := res.Render(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != dynamicFleetGolden {
			t.Errorf("workers=%d: fleet-flap report sha256 = %s, want %s", workers, got, dynamicFleetGolden)
		}
	}
}
