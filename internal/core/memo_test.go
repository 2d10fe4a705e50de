package core

import (
	"math"
	"testing"

	"repro/internal/bayesopt"
	"repro/internal/session"
	"repro/internal/transfer"
)

// sampleFor builds a deterministic noise-free sample whose throughput
// follows a concave curve in n — enough structure for every searcher
// to produce a nontrivial trajectory.
func sampleFor(n int, t float64) transfer.Sample {
	tput := 1e9 * (math.Log(float64(n)+1) - 0.02*float64(n) + 1)
	return transfer.Sample{
		Setting:    transfer.Setting{Concurrency: n, Parallelism: 1, Pipelining: 1},
		Duration:   3,
		Throughput: tput,
		Loss:       0.001 * float64(n),
		Time:       t,
	}
}

// TestDecisionMemoTransparent drives memoized and unmemoized agents of
// each snapshot-able algorithm through identical sample sequences and
// requires identical decisions, then replays a staggered twin against
// the warm memo and requires hits.
func TestDecisionMemoTransparent(t *testing.T) {
	for _, algo := range []string{AlgoHillClimbing, AlgoGradient} {
		t.Run(algo, func(t *testing.T) {
			memo := NewDecisionMemo(0)
			warm, err := NewFleetAgent(algo, 16, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !warm.SetDecisionMemo(memo) {
				t.Fatalf("%s agent rejected decision memo", algo)
			}
			plain, _ := NewAgentByName(algo, 16, 1)

			var trace []int
			n1, n2 := 2, 2
			for step := 0; step < 200; step++ {
				now := float64(step) * 3
				a := plain.Decide(sampleFor(n1, now))
				b := warm.Decide(sampleFor(n2, now))
				if a.Concurrency != b.Concurrency {
					t.Fatalf("step %d: plain chose %d, memoized %d", step, a.Concurrency, b.Concurrency)
				}
				trace = append(trace, a.Concurrency)
				n1, n2 = a.Concurrency, b.Concurrency
			}

			twin, _ := NewFleetAgent(algo, 16, 1)
			twin.SetDecisionMemo(memo)
			h0, _ := memo.Stats()
			n := 2
			for step := 0; step < 200; step++ {
				got := twin.Decide(sampleFor(n, float64(step)*3)).Concurrency
				if got != trace[step] {
					t.Fatalf("twin step %d: chose %d, trace has %d", step, got, trace[step])
				}
				n = got
			}
			h1, l1 := memo.Stats()
			if h1-h0 != 200 {
				t.Fatalf("twin replay hit %d/200 steps (lookups %d)", h1-h0, l1)
			}
		})
	}
}

// TestDecisionMemoRejectsBO checks that BO agents decline the
// state-snapshot memo (they memoize at the GP layer) but accept the
// sweep memo, and vice versa for hc.
func TestDecisionMemoRejectsBO(t *testing.T) {
	bo, err := NewFleetAgent(AlgoBayesian, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bo.SetDecisionMemo(NewDecisionMemo(0)) {
		t.Fatal("BO agent accepted a decision memo")
	}
	if !bo.SetSweepMemo(nil) {
		t.Fatal("BO agent rejected a sweep memo attach")
	}
	hc, _ := NewFleetAgent(AlgoHillClimbing, 16, 1)
	if hc.SetSweepMemo(nil) {
		t.Fatal("hc agent accepted a sweep memo")
	}
}

// TestFleetAgentHistoryOff pins the fleet constructor's memory diet:
// no decision history accumulates.
func TestFleetAgentHistoryOff(t *testing.T) {
	a, err := NewFleetAgent(AlgoHillClimbing, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := 2
	for step := 0; step < 50; step++ {
		n = a.Decide(sampleFor(n, float64(step)*3)).Concurrency
	}
	if h := a.History(); len(h) != 0 {
		t.Fatalf("fleet agent recorded %d history entries, want 0", len(h))
	}
}

// TestFleetAgentMatchesByNameForSeedless pins that hc/gd fleet agents
// decide exactly like their NewAgentByName counterparts (only BO's rng
// source differs).
func TestFleetAgentMatchesByNameForSeedless(t *testing.T) {
	for _, algo := range []string{AlgoHillClimbing, AlgoGradient} {
		fa, err := NewFleetAgent(algo, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		ba, _ := NewAgentByName(algo, 16, 1)
		n1, n2 := 2, 2
		for step := 0; step < 100; step++ {
			now := float64(step) * 3
			a := fa.Decide(sampleFor(n1, now)).Concurrency
			b := ba.Decide(sampleFor(n2, now)).Concurrency
			if a != b {
				t.Fatalf("%s step %d: fleet %d != byname %d", algo, step, a, b)
			}
			n1, n2 = a, b
		}
	}
}

// TestDecideIsolatedOnlyOnPrivateState: an agent declares its Decide
// isolated — safe to run beside other agents' — exactly while nothing
// it touches is shared: a decision memo, a sweep memo, or a
// caller-supplied utility function each withdraw the declaration, and
// detaching them restores it.
func TestDecideIsolatedOnlyOnPrivateState(t *testing.T) {
	var _ session.IsolatedDecider = (*Agent)(nil)
	var _ session.IsolatedDecider = (*MultiAgent)(nil)
	if !NewDefaultMultiAgent(8, 4, 4).DecideIsolated() {
		t.Error("a multi-parameter agent is not isolated")
	}
	for _, algo := range []string{AlgoHillClimbing, AlgoGradient, AlgoBayesian, AlgoDirectSearch, AlgoSPSA} {
		a, err := NewFleetAgent(algo, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !a.DecideIsolated() {
			t.Errorf("%s: a fresh agent is not isolated", algo)
		}
		a.SetUtilityFunc(func(n, p int, aggregate, loss float64) float64 { return aggregate })
		if a.DecideIsolated() {
			t.Errorf("%s: isolated with a caller-supplied utility function", algo)
		}
		a.SetUtilityFunc(nil)
		if a.SetDecisionMemo(NewDecisionMemo(0)) == a.DecideIsolated() {
			t.Errorf("%s: isolated = %v with a decision memo attached", algo, a.DecideIsolated())
		}
		a.SetDecisionMemo(nil)
		if a.SetSweepMemo(bayesopt.NewSweepMemo(0)) == a.DecideIsolated() {
			t.Errorf("%s: isolated = %v with a sweep memo attached", algo, a.DecideIsolated())
		}
		a.SetSweepMemo(nil)
		if !a.DecideIsolated() {
			t.Errorf("%s: not isolated again after detaching every memo", algo)
		}
	}
}
