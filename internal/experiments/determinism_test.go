package experiments

import (
	"testing"

	"repro/internal/parallel"
)

// TestParallelRunMatchesSerial: the worker-pool harness must be
// invisible in the output — running a mix of experiments (including
// sweep-based fig1a and the internally-parallel fig9) across several
// workers yields renders byte-identical to a fully serial run with the
// same seed.
func TestParallelRunMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiments")
	}
	ids := []string{"fig1a", "fig9", "abl-window"}
	runners := make([]Runner, 0, len(ids))
	for _, id := range ids {
		r, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		runners = append(runners, r)
	}
	const seed = 1

	render := func(workers int) []string {
		old := parallel.Workers()
		parallel.SetWorkers(workers)
		defer parallel.SetWorkers(old)
		outs := Run(runners, seed, workers)
		strs := make([]string, len(outs))
		for i, out := range outs {
			if out.Err != nil {
				t.Fatalf("%s (workers=%d): %v", out.Runner.ID, workers, out.Err)
			}
			strs[i] = out.Result.String()
		}
		return strs
	}

	serial := render(1)
	for _, workers := range []int{2, 4} {
		got := render(workers)
		for i := range serial {
			if got[i] != serial[i] {
				t.Errorf("%s: workers=%d output differs from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
					runners[i].ID, workers, serial[i], workers, got[i])
			}
		}
	}
}
