package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/optimizer"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/transfer"
	"repro/internal/utility"
)

func TestNewAgentValidation(t *testing.T) {
	if _, err := NewAgent(nil, utility.DefaultParams()); err == nil {
		t.Error("nil search accepted")
	}
	if _, err := NewAgent(optimizer.NewGradientDescent(10), utility.Params{K: 1}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestNewAgentByName(t *testing.T) {
	for _, algo := range []string{AlgoHillClimbing, AlgoGradient, AlgoBayesian} {
		a, err := NewAgentByName(algo, 32, 1)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if a.AlgorithmName() == "" {
			t.Fatalf("%s: empty algorithm name", algo)
		}
	}
	if _, err := NewAgentByName("nope", 32, 1); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestSetFixedKnobs(t *testing.T) {
	a := NewGDAgent(16)
	if err := a.SetFixedKnobs(0, 1); err == nil {
		t.Error("p=0 accepted")
	}
	if err := a.SetFixedKnobs(1, 0); err == nil {
		t.Error("q=0 accepted")
	}
	if err := a.SetFixedKnobs(4, 8); err != nil {
		t.Fatal(err)
	}
	s := a.Decide(transfer.Sample{
		Setting:  transfer.Setting{Concurrency: 2, Parallelism: 1, Pipelining: 1},
		Duration: 3, Throughput: 1e9,
	})
	if s.Parallelism != 4 || s.Pipelining != 8 {
		t.Fatalf("fixed knobs not applied: %+v", s)
	}
}

// TestAgentReleaseForwardsToSearch: an agent is a session.Releaser; a
// BO agent's Release reaches its searcher, which then refuses to
// decide, and an hc agent, whose search keeps nothing to drop, still
// decides after one.
func TestAgentReleaseForwardsToSearch(t *testing.T) {
	sample := transfer.Sample{
		Setting:  transfer.Setting{Concurrency: 2, Parallelism: 1, Pipelining: 1},
		Duration: 3, Throughput: 1e9,
	}
	for _, algo := range []string{AlgoBayesian, AlgoHillClimbing} {
		a, err := NewFleetAgent(algo, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		var r session.Releaser = a
		for i := 0; i < 5; i++ {
			a.Decide(sample)
		}
		r.Release()
		panicked := func() (did bool) {
			defer func() { did = recover() != nil }()
			a.Decide(sample)
			return false
		}()
		if want := algo == AlgoBayesian; panicked != want {
			t.Errorf("%s agent: Decide after Release panicked = %v, want %v", algo, panicked, want)
		}
	}
}

// recordingSearch is a search that records every observation the agent
// hands it before delegating.
type recordingSearch struct {
	optimizer.Search
	seen []optimizer.Observation
}

func (r *recordingSearch) Next(obs optimizer.Observation) int {
	r.seen = append(r.seen, obs)
	return r.Search.Next(obs)
}

// TestAgentFeedsSearchSampleUtility: each decision hands the search the
// sample's concurrency and its Eq 4 utility, and returns the search's
// next concurrency with the agent's fixed knobs.
func TestAgentFeedsSearchSampleUtility(t *testing.T) {
	rec := &recordingSearch{Search: optimizer.NewGradientDescent(16)}
	a, err := NewAgent(rec, utility.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	n := 2
	for i := 0; i < 5; i++ {
		s := transfer.Sample{
			Setting:  transfer.Setting{Concurrency: n, Parallelism: 1, Pipelining: 1},
			Duration: 3, Throughput: 1e9 * float64(n), Loss: 0.001,
		}
		next := a.Decide(s)
		obs := rec.seen[i]
		if want := utility.DefaultParams().Evaluate(n, 1, s.Throughput, s.Loss); obs.N != n || obs.Utility != want {
			t.Fatalf("decision %d: search saw %+v, want N=%d utility %v", i, obs, n, want)
		}
		if next.Concurrency < 1 || next.Concurrency > 16 || next.Parallelism != 1 || next.Pipelining != 1 {
			t.Fatalf("decision %d: next %v out of bounds", i, next)
		}
		n = next.Concurrency
	}
	if len(rec.seen) != 5 {
		t.Fatalf("search saw %d observations for 5 decisions", len(rec.seen))
	}
}

func TestAgentPosteriorSweep(t *testing.T) {
	const maxN = 16
	bo := NewBOAgent(maxN, 3)
	means := make([]float64, maxN)
	stds := make([]float64, maxN)

	// No surrogate before the BO search's first fit (random phase).
	if bo.PosteriorSweep(means, stds) {
		t.Fatal("PosteriorSweep reported a posterior before any fit")
	}
	n := 2
	for i := 0; i < 10; i++ {
		set := bo.Decide(transfer.Sample{
			Setting:  transfer.Setting{Concurrency: n, Parallelism: 1, Pipelining: 1},
			Duration: 3, Throughput: float64(1+n%5) * 1e8,
		})
		n = set.Concurrency
	}
	if !bo.PosteriorSweep(means, stds) {
		t.Fatal("PosteriorSweep reported no posterior after 10 decisions")
	}
	for j := range means {
		if math.IsNaN(means[j]) || math.IsNaN(stds[j]) || stds[j] < 0 {
			t.Fatalf("grid point %d: invalid posterior (mean %v, std %v)", j+1, means[j], stds[j])
		}
	}

	// Searches without a surrogate simply decline.
	if NewGDAgent(maxN).PosteriorSweep(means, stds) {
		t.Fatal("gradient-descent agent claimed a posterior sweep")
	}
}

func TestNewMultiAgentValidation(t *testing.T) {
	if _, err := NewMultiAgent(nil, utility.DefaultParams()); err == nil {
		t.Error("nil search accepted")
	}
	if _, err := NewMultiAgent(optimizer.NewConjugateGD([]int{1, 1, 1}, []int{4, 4, 4}), utility.Params{K: 0.5}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestMultiAgentDecideShape(t *testing.T) {
	m := NewDefaultMultiAgent(16, 8, 32)
	s := m.Decide(transfer.Sample{
		Setting:  transfer.Setting{Concurrency: 2, Parallelism: 2, Pipelining: 2},
		Duration: 5, Throughput: 5e9,
	})
	if err := s.Validate(); err != nil {
		t.Fatalf("multi-agent produced invalid setting: %v", err)
	}
	if s.Concurrency > 16 || s.Parallelism > 8 || s.Pipelining > 32 {
		t.Fatalf("setting out of bounds: %+v", s)
	}
}

// --- Integration with the simulated testbeds ---

func bigTask(id string, n int) *transfer.Task {
	task, err := transfer.NewTask(id, dataset.Uniform(id, 5000, int64(dataset.GB)),
		transfer.Setting{Concurrency: n, Parallelism: 1, Pipelining: 1})
	if err != nil {
		panic(err)
	}
	return task
}

// runSingle drives one agent on a testbed for `horizon` seconds and
// returns the timeline.
func runSingle(t *testing.T, cfg testbed.Config, agent testbed.Controller, horizon float64) *testbed.Timeline {
	t.Helper()
	eng, err := testbed.NewEngine(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := testbed.NewScheduler(eng, 1)
	task := bigTask("falcon", 2)
	if err := s.Add(testbed.Participant{Task: task, Controller: agent}); err != nil {
		t.Fatal(err)
	}
	return s.Run(horizon, 0.25)
}

func TestGDAgentConvergesOnEmulab(t *testing.T) {
	// Figure 9(a): Emulab, 10 Mbps per process, 100 Mbps link → optimal
	// concurrency 10, ≈0.1 Gbps.
	tl := runSingle(t, testbed.Emulab(10e6), NewGDAgent(32), 300)
	cc := tl.Concurrency.Lookup("falcon")
	if cc == nil {
		t.Fatal("no concurrency series")
	}
	// Post-convergence concurrency must hover around 10 (the paper
	// reports bouncing between 9 and 11).
	tailMean := cc.MeanAfter(120)
	if tailMean < 8 || tailMean > 13 {
		t.Fatalf("tail concurrency = %v, want ≈10", tailMean)
	}
	tput := tl.MeanThroughputGbps("falcon", 120, 300)
	if tput < 0.085 {
		t.Fatalf("converged throughput = %v Gbps, want ≈0.1", tput)
	}
}

func TestBOAgentConvergesOnEmulab(t *testing.T) {
	tl := runSingle(t, testbed.Emulab(10e6), NewBOAgent(32, 42), 300)
	tput := tl.MeanThroughputGbps("falcon", 120, 300)
	if tput < 0.08 {
		t.Fatalf("BO converged throughput = %v Gbps, want ≈0.1", tput)
	}
}

func TestGDAgentConvergesOnHPCLab(t *testing.T) {
	// §4.1: both GD and BO reach >25 Gbps in HPCLab (optimum ≈9).
	tl := runSingle(t, testbed.HPCLab(), NewGDAgent(32), 240)
	tput := tl.MeanThroughputGbps("falcon", 120, 240)
	if tput < 22 {
		t.Fatalf("HPCLab GD throughput = %v Gbps, want >22", tput)
	}
}

func TestHCAgentSlowerThanGDOnLargeOptimum(t *testing.T) {
	// Figures 7–8: with the optimum at ≈48, HC needs far longer than GD.
	cfg := testbed.EmulabGigabit(20.83e6)
	reach := func(agent testbed.Controller) float64 {
		eng, err := testbed.NewEngine(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		s := testbed.NewScheduler(eng, 1)
		task := bigTask("a", 2)
		if err := s.Add(testbed.Participant{Task: task, Controller: agent}); err != nil {
			t.Fatal(err)
		}
		tl := s.Run(600, 0.25)
		cc := tl.Concurrency.Lookup("a")
		for _, p := range cc.Points {
			if p.Value >= 43 {
				return p.Time
			}
		}
		return math.Inf(1)
	}
	gdTime := reach(NewGDAgent(100))
	hcTime := reach(NewHCAgent(100))
	if math.IsInf(gdTime, 1) {
		t.Fatal("GD never approached 48")
	}
	if math.IsInf(hcTime, 1) {
		t.Fatal("HC never approached 48 within 600s")
	}
	if hcTime < 2.5*gdTime {
		t.Fatalf("HC (%vs) should be much slower than GD (%vs)", hcTime, gdTime)
	}
}

func TestCompetingGDAgentsShareFairly(t *testing.T) {
	// Figure 11: two GD agents on the same testbed converge to
	// near-identical throughput (Jain ≈ 1) while keeping utilization
	// high.
	cfg := testbed.Emulab(10e6)
	eng, err := testbed.NewEngine(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := testbed.NewScheduler(eng, 1)
	if err := s.Add(testbed.Participant{Task: bigTask("a", 2), Controller: NewGDAgent(32)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(testbed.Participant{Task: bigTask("b", 2), Controller: NewGDAgent(32), JoinAt: 120}); err != nil {
		t.Fatal(err)
	}
	tl := s.Run(480, 0.25)

	ta := tl.MeanThroughputGbps("a", 300, 480)
	tb := tl.MeanThroughputGbps("b", 300, 480)
	if j := stats.JainIndex([]float64{ta, tb}); j < 0.95 {
		t.Fatalf("Jain index = %v (a=%v, b=%v Gbps), want ≥0.95", j, ta, tb)
	}
	// Aggregate utilization stays high (≥80% of the 0.1 Gbps capacity).
	if ta+tb < 0.08 {
		t.Fatalf("aggregate = %v Gbps, want ≥0.08", ta+tb)
	}
}

func TestAgentsReduceConcurrencyWhenCompetitorJoins(t *testing.T) {
	// Figure 13's mechanism: a solo agent converges near the optimum;
	// when a second Falcon agent joins, the first backs off its
	// concurrency rather than fighting.
	cfg := testbed.Emulab(10e6)
	eng, err := testbed.NewEngine(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := testbed.NewScheduler(eng, 1)
	if err := s.Add(testbed.Participant{Task: bigTask("first", 2), Controller: NewGDAgent(32)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(testbed.Participant{Task: bigTask("second", 2), Controller: NewGDAgent(32), JoinAt: 180}); err != nil {
		t.Fatal(err)
	}
	tl := s.Run(480, 0.25)
	cc := tl.Concurrency.Lookup("first")
	solo := cc.Between(100, 180).Mean()
	contested := cc.Between(320, 480).Mean()
	if contested >= solo {
		t.Fatalf("first agent did not back off: solo %v, contested %v", solo, contested)
	}
}

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
// it touches is shared. Every built-in algorithm is isolated; a
// caller-supplied utility function withdraws the declaration, and
// clearing it restores it.
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
		if !a.DecideIsolated() {
			t.Errorf("%s: not isolated again after SetUtilityFunc(nil)", algo)
		}
	}
}
