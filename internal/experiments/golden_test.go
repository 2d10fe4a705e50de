package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"repro/internal/parallel"
	"repro/internal/testbed"
)

// reproduceGolden is the SHA-256 of `reproduce -seed 1` stdout, pinned
// at the commit before task handles replaced ID lookups in the engine.
// Every stepping mode and worker width must render these exact bytes;
// a physics or ordering change that moves them is either a bug or a
// deliberate re-baseline (regenerate with
// `go run ./cmd/reproduce -seed 1 | sha256sum`).
const reproduceGolden = "36c4ea8f846489069ec9716f7c00855d164ad36bb5037d932ac408281c8fdd4d"

// renderReproduce writes what cmd/reproduce prints for the full suite.
func renderReproduce(t *testing.T, w io.Writer, seed int64, exact bool, workers int) {
	t.Helper()
	testbed.SetDefaultExact(exact)
	defer testbed.SetDefaultExact(false)
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

// TestReproduceGolden pins the full `reproduce -seed 1` render, in the
// batched and exact stepping modes and at -parallel 1 and 8, to the
// checked-in hash.
func TestReproduceGolden(t *testing.T) {
	for _, exact := range []bool{false, true} {
		for _, workers := range []int{1, 8} {
			h := sha256.New()
			renderReproduce(t, h, 1, exact, workers)
			if got := hex.EncodeToString(h.Sum(nil)); got != reproduceGolden {
				t.Errorf("exact=%v parallel=%d: reproduce -seed 1 sha256 = %s, want %s", exact, workers, got, reproduceGolden)
			}
		}
	}
}
