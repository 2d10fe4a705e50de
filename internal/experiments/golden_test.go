package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"
	"sort"
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

// chartsGolden is the SHA-256 over every chart of the seed-1 suite as
// `reproduce -chart -csv DIR -svg DIR` writes it: per result in paper
// order, its charts in sorted name order, each as the -chart block
// ("-- <id>/<name> --" and the ASCII chart), then TimeSet.WriteCSV,
// then WriteSVG. Render omits charts, so reproduceGolden does not pin
// them. WriteCSV sorts its columns by name, so the ASCII and SVG
// renders are what pin the order of a chart's series. The constant was
// taken before the experiments' trials moved onto parallel.Map, from
// the serial per-experiment loops.
const chartsGolden = "ea01002c9ba80e48e1d367564b379f86ec579693514710270dda2a1638271b6a"

// renderReproduce writes what cmd/reproduce prints for the full suite
// to w, and every result's charts, as chartsGolden frames them, to
// charts.
func renderReproduce(t *testing.T, w, charts io.Writer, seed int64, workers int) {
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
		names := make([]string, 0, len(out.Result.Charts))
		for name := range out.Result.Charts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ts := out.Result.Charts[name]
			fmt.Fprintf(charts, "-- %s/%s --\n%s", out.Result.ID, name, ts.ASCIIChart(72, 12))
			if err := ts.WriteCSV(charts); err != nil {
				t.Fatal(err)
			}
			if err := ts.WriteSVG(charts, 720, 320, out.Result.ID+" "+name); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestReproduceGolden pins the full `reproduce -seed 1` render and
// every chart, at -parallel 1 and 8, to the checked-in hashes.
func TestReproduceGolden(t *testing.T) {
	for _, workers := range []int{1, 8} {
		h, hc := sha256.New(), sha256.New()
		renderReproduce(t, h, hc, 1, workers)
		if got := hex.EncodeToString(h.Sum(nil)); got != reproduceGolden {
			t.Errorf("parallel=%d: reproduce -seed 1 sha256 = %s, want %s", workers, got, reproduceGolden)
		}
		if got := hex.EncodeToString(hc.Sum(nil)); got != chartsGolden {
			t.Errorf("parallel=%d: seed-1 charts sha256 = %s, want %s", workers, got, chartsGolden)
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
