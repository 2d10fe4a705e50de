package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// Fig7 compares the convergence speed of Hill Climbing, Gradient
// Descent, and Bayesian Optimization when the optimal concurrency is
// ≈48 (Emulab, 1 Gbps link, ≈20.8 Mbps per process).
func Fig7(seed int64) (*Result, error) {
	r := &Result{
		ID:     "fig7",
		Title:  "Convergence to the optimal concurrency (≈48) by search algorithm",
		Header: []string{"Algorithm", "Time to reach ≥43 (s)", "Throughput after convergence (Mbps)"},
	}
	cfg := testbed.EmulabGigabit(20.83e6)
	algos := []string{core.AlgoHillClimbing, core.AlgoGradient, core.AlgoBayesian}
	tls, err := parallel.Map(len(algos), func(i int) (*testbed.Timeline, error) {
		agent, err := core.NewAgentByName(algos[i], 100, seed)
		if err != nil {
			return nil, err
		}
		return runScenario(cfg, seed, 900, testbed.Participant{Task: endlessTask(algos[i], 2), Controller: agent})
	})
	if err != nil {
		return nil, err
	}
	reaches := make([]float64, len(algos))
	for i, algo := range algos {
		tl := tls[i]
		reaches[i] = -1
		for _, p := range tl.Concurrency.Lookup(algo).Points {
			if p.Value >= 43 {
				reaches[i] = p.Time
				break
			}
		}
		reachStr := "never"
		if reaches[i] >= 0 {
			reachStr = fmt.Sprintf("%.0f", reaches[i])
		}
		r.AddRow(algo, reachStr, fmt.Sprintf("%.0f", tl.MeanThroughputGbps(algo, 700, 900)*1000))
		copyChart(r.Chart("concurrency"), &tl.Concurrency)
	}
	if reaches[0] > 0 && reaches[1] > 0 {
		r.AddNote("HC/GD convergence-time ratio %.1fx (paper: ~7x; GD+BO <30s, HC >250s)",
			reaches[0]/reaches[1])
	}
	return r, nil
}

// Fig8 runs two Hill Climbing Falcon agents against each other: unit
// steps make both convergence and fairness painfully slow compared to
// GD/BO (reported alongside for contrast).
func Fig8(seed int64) (*Result, error) {
	r := &Result{
		ID:     "fig8",
		Title:  "Competing transfers under Hill Climbing vs Gradient Descent",
		Header: []string{"Algorithm pair", "Jain index (mid-run)", "Jain index (late)", "Aggregate (Mbps, late)"},
	}
	cfg := testbed.EmulabGigabit(20.83e6)
	pairs := []struct {
		label string
		mk    func() testbed.Controller
	}{
		{"hc", func() testbed.Controller { return core.NewHCAgent(100) }},
		{"gd", func() testbed.Controller { return core.NewGDAgent(100) }},
	}
	tls, err := parallel.Map(len(pairs), func(i int) (*testbed.Timeline, error) {
		label, mk := pairs[i].label, pairs[i].mk
		return runScenario(cfg, seed, 900,
			testbed.Participant{Task: endlessTask(label+"-a", 2), Controller: mk()},
			testbed.Participant{Task: endlessTask(label+"-b", 2), Controller: mk(), JoinAt: 120},
		)
	})
	if err != nil {
		return nil, err
	}
	for i, pair := range pairs {
		tl, label := tls[i], pair.label
		midA := tl.MeanThroughputGbps(label+"-a", 240, 420)
		midB := tl.MeanThroughputGbps(label+"-b", 240, 420)
		lateA := tl.MeanThroughputGbps(label+"-a", 700, 900)
		lateB := tl.MeanThroughputGbps(label+"-b", 700, 900)
		r.AddRow(label,
			fmt.Sprintf("%.3f", stats.JainIndex([]float64{midA, midB})),
			fmt.Sprintf("%.3f", stats.JainIndex([]float64{lateA, lateB})),
			fmt.Sprintf("%.0f", (lateA+lateB)*1000))
		copyChart(r.Chart("throughput-"+label), &tl.Throughput)
	}
	r.AddNote("HC reaches fairness eventually but far more slowly than GD (paper Figure 8)")
	return r, nil
}
