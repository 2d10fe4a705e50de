// Package core implements Falcon itself — the paper's contribution: an
// online transfer-optimization agent that evaluates sample transfers
// with a game-theory-inspired utility function (package utility) and
// proposes new settings through an online search algorithm (packages
// optimizer and bayesopt).
//
// The Agent is a pure decision process: one call per sample transfer,
// no clocks or goroutines, which makes it drivable both by the
// simulated testbeds (testbed.Scheduler) and by the wall-clock session
// loop of a real transfer (session.Run). Because every Falcon agent
// maximises the same strictly concave utility, competing agents
// converge to a fair Nash equilibrium (§3.1) — reproduced by the
// Figure 11–13 experiments.
package core

import (
	"fmt"

	"repro/internal/bayesopt"
	"repro/internal/fastrand"
	"repro/internal/optimizer"
	"repro/internal/transfer"
	"repro/internal/utility"
)

// Algorithm names accepted by NewAgentByName.
const (
	AlgoHillClimbing = "hc"
	AlgoGradient     = "gd"
	AlgoBayesian     = "bo"
	// AlgoDirectSearch and AlgoSPSA are related-work comparators
	// (§5: Balaprakash et al.'s direct search; ProbData's stochastic
	// approximation), not Falcon algorithms.
	AlgoDirectSearch = "direct"
	AlgoSPSA         = "spsa"
)

// Agent tunes the concurrency of one transfer task online. It
// satisfies testbed.Controller.
type Agent struct {
	search optimizer.Search
	params utility.Params

	// fixed values for the knobs a single-parameter agent does not tune
	parallelism int
	pipelining  int

	// utilFn overrides the default Eq 4 utility when non-nil (the
	// Figure 6 experiments swap in the linear-regret Eq 3).
	utilFn UtilityFunc
}

// UtilityFunc maps one sample's observables to a utility value:
// concurrency n, parallelism p, aggregate throughput (bits/s), and
// loss rate.
type UtilityFunc func(n, p int, aggregate, loss float64) float64

// NewAgent builds an agent around a search algorithm and utility
// parameters. It returns an error for a nil search or invalid params.
func NewAgent(search optimizer.Search, params utility.Params) (*Agent, error) {
	if search == nil {
		return nil, fmt.Errorf("core: nil search")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Agent{search: search, params: params, parallelism: 1, pipelining: 1}, nil
}

// NewGDAgent returns a Falcon agent using Online Gradient Descent over
// concurrency [1, maxN] with default utility parameters.
func NewGDAgent(maxN int) *Agent {
	a, err := NewAgent(optimizer.NewGradientDescent(maxN), utility.DefaultParams())
	if err != nil {
		panic(err) // unreachable: inputs are valid by construction
	}
	return a
}

// NewBOAgent returns a Falcon agent using Bayesian Optimization over
// concurrency [1, maxN] with default utility parameters.
func NewBOAgent(maxN int, seed int64) *Agent {
	a, err := NewAgent(bayesopt.New(maxN, seed), utility.DefaultParams())
	if err != nil {
		panic(err)
	}
	return a
}

// NewHCAgent returns a Falcon agent using Hill Climbing over
// concurrency [1, maxN] with default utility parameters.
func NewHCAgent(maxN int) *Agent {
	a, err := NewAgent(optimizer.NewHillClimbing(maxN), utility.DefaultParams())
	if err != nil {
		panic(err)
	}
	return a
}

// NewAgentByName builds an agent from an algorithm name ("hc", "gd",
// "bo", "direct", "spsa"). The seed only affects "bo" and "spsa", which
// draw from math/rand sources. It is the constructor wherever bytes are
// pinned to that stream — the paper experiments (experiments.All,
// reproduce) — and of falconftp's real-transfer agent. Scenario
// documents use NewFleetAgent.
func NewAgentByName(algo string, maxN int, seed int64) (*Agent, error) {
	switch algo {
	case AlgoHillClimbing:
		return NewHCAgent(maxN), nil
	case AlgoGradient:
		return NewGDAgent(maxN), nil
	case AlgoBayesian:
		return NewBOAgent(maxN, seed), nil
	case AlgoDirectSearch:
		return NewAgent(optimizer.NewDirectSearch(maxN), utility.DefaultParams())
	case AlgoSPSA:
		return NewAgent(optimizer.NewSPSA(maxN, seed), utility.DefaultParams())
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q (want hc, gd, bo, direct, or spsa)", algo)
	}
}

// NewFleetAgent builds an agent for fleet-scale runs: NewAgentByName,
// except that the seeded BO searcher draws from 8-byte fastrand sources
// instead of math/rand's ~4.9 KiB table sources (two tables per BO
// agent ≈ 9.8 KiB, which alone is ~3 GiB across a million sessions).
// The BO random stream therefore differs from NewAgentByName's; hc and
// gd decide identically. It is the constructor of every hc/gd/bo agent
// a scenario document builds (scenario.Build, behind fleet and
// falconsim on both their roads, the web service and the benchmark's
// fleets).
func NewFleetAgent(algo string, maxN int, seed int64) (*Agent, error) {
	if algo == AlgoBayesian {
		return NewAgent(
			bayesopt.NewWithSources(maxN, fastrand.New(seed), fastrand.New(seed+1)),
			utility.DefaultParams(),
		)
	}
	return NewAgentByName(algo, maxN, seed)
}

// SetFixedKnobs fixes the parallelism and pipelining the agent attaches
// to every decision (a single-parameter agent tunes only concurrency).
// It returns an error for values below 1.
func (a *Agent) SetFixedKnobs(parallelism, pipelining int) error {
	if parallelism < 1 || pipelining < 1 {
		return fmt.Errorf("core: fixed knobs p=%d q=%d must be ≥ 1", parallelism, pipelining)
	}
	a.parallelism = parallelism
	a.pipelining = pipelining
	return nil
}

// SetUtilityFunc replaces the agent's utility function (nil restores
// the default Eq 4 evaluation). The Figure 6 experiments use it to
// compare linear and nonlinear concurrency regret.
func (a *Agent) SetUtilityFunc(f UtilityFunc) { a.utilFn = f }

// Decide implements the Falcon control loop for one epoch: compute the
// sample's utility, feed it to the search, and return the setting for
// the next sample transfer.
func (a *Agent) Decide(s transfer.Sample) transfer.Setting {
	var u float64
	if a.utilFn != nil {
		u = a.utilFn(s.Setting.Concurrency, s.Setting.Parallelism, s.Throughput, s.Loss)
	} else {
		u = a.params.Evaluate(s.Setting.Concurrency, s.Setting.Parallelism, s.Throughput, s.Loss)
	}
	next := a.search.Next(optimizer.Observation{N: s.Setting.Concurrency, Utility: u})
	return transfer.Setting{Concurrency: next, Parallelism: a.parallelism, Pipelining: a.pipelining}
}

// DecideIsolated implements session.IsolatedDecider: Decide touches
// only the agent's own search and rng, so agents may decide concurrently
// — unless the agent runs a caller-supplied utility function it cannot
// vouch for.
func (a *Agent) DecideIsolated() bool { return a.utilFn == nil }

// Release implements session.Releaser: once the agent's session has
// ended, a search that keeps state between decisions (a BO searcher's
// window, factors and kernel tables) drops it. The agent must not
// decide again.
func (a *Agent) Release() {
	if r, ok := a.search.(interface{ Release() }); ok {
		r.Release()
	}
}

// posteriorSweeper is the optional batched-posterior capability a
// search algorithm can provide (bayesopt.Search does): one call fills
// the whole candidate grid instead of one scalar predict per point.
type posteriorSweeper interface {
	PosteriorSweep(means, stds []float64) bool
}

// PosteriorSweep writes the agent's surrogate posterior over its
// candidate grid into means and stds (each sized to the grid, e.g.
// maxN for a BO agent) and reports whether a posterior exists. It
// returns false for agents whose search has no surrogate (hill
// climbing, gradient descent) and before the BO agent's first fit.
// Multi-agent servers use it to amortise one batched sweep per agent
// per epoch instead of issuing per-point predictions.
func (a *Agent) PosteriorSweep(means, stds []float64) bool {
	ps, ok := a.search.(posteriorSweeper)
	if !ok {
		return false
	}
	return ps.PosteriorSweep(means, stds)
}

// MultiAgent tunes concurrency, parallelism, and pipelining together
// (§4.4, "Falcon_MP") using the Eq 7 utility and a conjugate-gradient
// vector search. It satisfies testbed.Controller.
type MultiAgent struct {
	search optimizer.VecSearch
	params utility.Params
}

// NewMultiAgent builds a multi-parameter agent. It returns an error for
// a nil search or invalid params.
func NewMultiAgent(search optimizer.VecSearch, params utility.Params) (*MultiAgent, error) {
	if search == nil {
		return nil, fmt.Errorf("core: nil vector search")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &MultiAgent{search: search, params: params}, nil
}

// NewDefaultMultiAgent returns a Falcon_MP agent over concurrency
// [1, maxN], parallelism [1, maxP], and pipelining [1, maxQ].
func NewDefaultMultiAgent(maxN, maxP, maxQ int) *MultiAgent {
	m, err := NewMultiAgent(
		optimizer.NewConjugateGD([]int{1, 1, 1}, []int{maxN, maxP, maxQ}),
		utility.DefaultParams(),
	)
	if err != nil {
		panic(err)
	}
	return m
}

// DecideIsolated implements session.IsolatedDecider: the agent's search
// and parameters are its own.
func (m *MultiAgent) DecideIsolated() bool { return true }

// Decide implements testbed.Controller for the multi-parameter agent.
// Pipelining carries no regret term (Eq 7): it is "merely command
// caching" with negligible overhead, so it influences utility only
// through the throughput it unlocks.
func (m *MultiAgent) Decide(s transfer.Sample) transfer.Setting {
	u := utility.MultiParamAggregate(
		s.Setting.Concurrency, s.Setting.Parallelism,
		s.Throughput, s.Loss, m.params.B, m.params.K,
	)
	x := m.search.NextVec(optimizer.VecObservation{
		X:       []int{s.Setting.Concurrency, s.Setting.Parallelism, s.Setting.Pipelining},
		Utility: u,
	})
	return transfer.Setting{Concurrency: x[0], Parallelism: x[1], Pipelining: x[2]}
}
