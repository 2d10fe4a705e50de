package core

import (
	"testing"

	"repro/internal/optimizer"
	"repro/internal/transfer"
	"repro/internal/utility"
)

func TestSetUtilityFuncOverridesDefault(t *testing.T) {
	rec := &recordingSearch{Search: optimizer.NewGradientDescent(16)}
	a, err := NewAgent(rec, utility.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	called := 0
	a.SetUtilityFunc(func(n, p int, agg, loss float64) float64 {
		called++
		return utility.LinearPenalty(n, agg/float64(n), loss, 10, 0.01)
	})
	sample := transfer.Sample{
		Setting:    transfer.Setting{Concurrency: 4, Parallelism: 1, Pipelining: 1},
		Duration:   3,
		Throughput: 1e9,
	}
	a.Decide(sample)
	if called != 1 {
		t.Fatalf("override called %d times, want 1", called)
	}
	// The search must see the override's value, not Eq 4's.
	want := utility.LinearPenalty(4, 0.25e9, 0, 10, 0.01)
	if got := rec.seen[0].Utility; got != want {
		t.Fatalf("search saw utility %v, want %v", got, want)
	}
	// Restoring the default switches back to Eq 4.
	a.SetUtilityFunc(nil)
	a.Decide(sample)
	eq4 := utility.DefaultParams().Evaluate(4, 1, 1e9, 0)
	if got := rec.seen[1].Utility; got != eq4 {
		t.Fatalf("restored utility %v, want Eq4 %v", got, eq4)
	}
}

func TestRelatedWorkAgentsByName(t *testing.T) {
	for _, algo := range []string{AlgoDirectSearch, AlgoSPSA} {
		a, err := NewAgentByName(algo, 16, 3)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		s := a.Decide(transfer.Sample{
			Setting:    transfer.Setting{Concurrency: 2, Parallelism: 1, Pipelining: 1},
			Duration:   3,
			Throughput: 1e9,
		})
		if err := s.Validate(); err != nil {
			t.Fatalf("%s produced invalid setting: %v", algo, err)
		}
	}
}
