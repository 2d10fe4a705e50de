package experiments

import (
	"testing"
)

// fleetOut renders a fleet run to the exact string cmd/fleet would
// print, plus its summary.
func fleetOut(t *testing.T, cfg FleetConfig) (string, *FleetSummary) {
	t.Helper()
	res, sum, err := Fleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.String(), sum
}

// TestFleetAggregateMatchesFull pins the streaming-aggregate memory
// diet's transparency: a fleet run in RecordMode "aggregate" must
// produce byte-identical report output — convergence time, equilibrium
// Jain, aggregate throughput, per-algorithm rows — to the same run in
// "full", whose metrics are recomputed from complete per-session
// series. Covered single- and multi-link, since each exercises a
// different recording path (plain scheduler vs sharded workers).
func TestFleetAggregateMatchesFull(t *testing.T) {
	for _, links := range []int{1, 4} {
		cfg := FleetConfig{Sessions: 60, Duration: 300, Stagger: 0.5, Seed: 3, Links: links}
		full, fullSum := fleetOut(t, cfg)
		cfg.RecordMode = "aggregate"
		agg, aggSum := fleetOut(t, cfg)
		if full != agg {
			t.Errorf("links=%d: aggregate-mode output differs from full:\n--- full ---\n%s\n--- aggregate ---\n%s", links, full, agg)
		}
		if fullSum.ConvergedAtSeconds != aggSum.ConvergedAtSeconds ||
			fullSum.EquilibriumJain != aggSum.EquilibriumJain ||
			fullSum.AggregateGbps != aggSum.AggregateGbps {
			t.Errorf("links=%d: summaries differ: full %+v, aggregate %+v", links, fullSum, aggSum)
		}
	}
}

// TestFleetRecordOff pins the off mode's contract: the run completes,
// reports no metrics, and the summary carries the mode.
func TestFleetRecordOff(t *testing.T) {
	out, sum := fleetOut(t, FleetConfig{Sessions: 20, Duration: 120, Stagger: 0.5, Seed: 3, RecordMode: "off"})
	if sum.RecordMode != "off" {
		t.Fatalf("summary record mode = %q", sum.RecordMode)
	}
	if sum.ConvergedAtSeconds != -1 || sum.AggregateGbps != 0 {
		t.Fatalf("off mode computed metrics: %+v", sum)
	}
	if out == "" {
		t.Fatal("off mode rendered nothing")
	}
}

// TestFleetRejectsBadRecordMode pins flag validation.
func TestFleetRejectsBadRecordMode(t *testing.T) {
	if _, _, err := Fleet(FleetConfig{Sessions: 5, Duration: 60, RecordMode: "bogus"}); err == nil {
		t.Fatal("Fleet accepted record mode \"bogus\"")
	}
}
