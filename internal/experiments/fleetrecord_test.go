package experiments

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// fleetDoc lowers a flag set with cmd/fleet's defaults for the rest:
// the hc/gd/bo mix over concurrency domains of 8.
func fleetDoc(t *testing.T, sessions int, duration, stagger float64, seed int64, links int) *scenario.Document {
	t.Helper()
	doc, err := FleetDoc(sessions, duration, stagger, 8, seed, []string{"hc", "gd", "bo"}, links)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// fleetStreamed renders a fleet document's production report, the
// exact string cmd/fleet prints, plus its summary.
func fleetStreamed(t *testing.T, doc *scenario.Document, workers int) (string, *FleetSummary) {
	t.Helper()
	fr, err := Fleet(doc, workers)
	if err != nil {
		t.Fatal(err)
	}
	res, sum := fr.Report()
	return res.String(), sum
}

// fleetFromTimeline renders the same report from full per-session
// timelines: the reference the streaming recorder must match bitwise.
func fleetFromTimeline(t *testing.T, doc *scenario.Document) (string, *FleetSummary) {
	t.Helper()
	run, err := doc.Build()
	if err != nil {
		t.Fatal(err)
	}
	tl, err := run.Execute(scenario.ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, sum := fleetReport(run, fleetStatsFromTimeline(tl, run))
	return res.String(), sum
}

// fleetStatsFromTimeline computes the fleet metrics from full-fidelity
// per-session series — the reference arithmetic the streaming
// fleetRecorder replicates bitwise.
func fleetStatsFromTimeline(tl *testbed.Timeline, run *scenario.Run) *fleetStats {
	duration, lastJoin := run.Doc.DurationSeconds, lastJoinOf(run)
	ids := run.AgentIDs
	// Convergence: slide a window of a tenth of the horizon from the
	// last join forward in half-window steps until the fleet-wide Jain
	// index over per-session means reaches 0.9.
	window := duration / 10
	fleetJain := func(t0, t1 float64) float64 {
		means := make([]float64, len(ids))
		for i, id := range ids {
			means[i] = tl.MeanThroughputGbps(id, t0, t1)
		}
		return stats.JainIndex(means)
	}
	converged := -1.0
	for t := lastJoin; t+window <= duration; t += window / 2 {
		if fleetJain(t, t+window) >= 0.9 {
			converged = t
			break
		}
	}

	// Equilibrium: final quarter of the run.
	eq0, eq1 := duration*3/4, duration
	eqMeans := make([]float64, len(ids))
	for i, id := range ids {
		eqMeans[i] = tl.MeanThroughputGbps(id, eq0, eq1)
	}
	return &fleetStats{converged: converged, eqMeans: eqMeans}
}

// TestFleetAggregateMatchesFull pins the streaming recorder's
// transparency: a fleet's report — convergence time, equilibrium
// Jain, aggregate throughput, per-algorithm rows — must be
// byte-identical to the one recomputed from complete per-session
// series. Covered single- and multi-link, since each exercises a
// different recording path (plain scheduler vs sharded workers).
func TestFleetAggregateMatchesFull(t *testing.T) {
	for _, links := range []int{1, 4} {
		doc := func() *scenario.Document { return fleetDoc(t, 60, 300, 0.5, 3, links) }
		full, fullSum := fleetFromTimeline(t, doc())
		agg, aggSum := fleetStreamed(t, doc(), 0)
		if full != agg {
			t.Errorf("links=%d: streamed report differs from full:\n--- full ---\n%s\n--- streamed ---\n%s", links, full, agg)
		}
		if fullSum.ConvergedAtSeconds != aggSum.ConvergedAtSeconds ||
			fullSum.EquilibriumJain != aggSum.EquilibriumJain ||
			fullSum.AggregateGbps != aggSum.AggregateGbps {
			t.Errorf("links=%d: summaries differ: full %+v, streamed %+v", links, fullSum, aggSum)
		}
	}
}
