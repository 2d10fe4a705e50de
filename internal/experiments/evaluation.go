package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// allNetworks runs one Falcon agent per Table 1 testbed and reports the
// converged throughput and concurrency — the content of Figures 9 (GD)
// and 10 (BO). The four testbeds share no engine, so they run as
// parallel.Map trials whose results are reported in Table 1 order —
// byte-identical to a serial loop.
func allNetworks(id, title, algo string, seed int64) (*Result, error) {
	r := &Result{
		ID:     id,
		Title:  title,
		Header: []string{"Testbed", "Converged throughput (Gbps)", "Converged concurrency", "Capacity (Gbps)"},
	}
	cfgs := testbed.Table1()
	const horizon = 300.0
	type trial struct {
		tl       *testbed.Timeline
		capacity float64
	}
	trials, err := parallel.Map(len(cfgs), func(i int) (trial, error) {
		cfg := cfgs[i]
		agent, err := core.NewAgentByName(algo, 32, seed)
		if err != nil {
			return trial{}, err
		}
		tl, err := runScenario(cfg, seed, horizon, testbed.Participant{Task: endlessTask(cfg.Name, 2), Controller: agent})
		if err != nil {
			return trial{}, err
		}
		eng, err := testbed.NewEngine(cfg, seed)
		if err != nil {
			return trial{}, err
		}
		return trial{tl, eng.EndToEndCapacity()}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, cfg := range cfgs {
		tl, capacity := trials[i].tl, trials[i].capacity
		tput := tl.MeanThroughputGbps(cfg.Name, horizon*0.5, horizon)
		cc := tl.Concurrency.Lookup(cfg.Name).MeanAfter(horizon * 0.5)
		r.AddRow(cfg.Name, fmt.Sprintf("%.2f", tput), fmt.Sprintf("%.1f", cc), gbps(capacity))
		copyChart(r.Chart("throughput"), &tl.Throughput)
		copyChart(r.Chart("concurrency"), &tl.Concurrency)
		r.AddNote("%s: %.0f%% of end-to-end capacity", cfg.Name, 100*tput*1e9/capacity)
	}
	return r, nil
}

// Fig9 evaluates Falcon with Gradient Descent in all four networks.
func Fig9(seed int64) (*Result, error) {
	return allNetworks("fig9", "Falcon-GD in all four networks", core.AlgoGradient, seed)
}

// Fig10 evaluates Falcon with Bayesian Optimization in all four
// networks.
func Fig10(seed int64) (*Result, error) {
	return allNetworks("fig10", "Falcon-BO in all four networks", core.AlgoBayesian, seed)
}

// competing runs three staggered Falcon agents on HPCLab and reports
// per-phase shares and fairness — Figures 11 (GD) and 12 (BO).
func competing(id, title, algo string, seed int64) (*Result, error) {
	r := &Result{
		ID:     id,
		Title:  title,
		Header: []string{"Phase", "Agent 1 (Gbps)", "Agent 2 (Gbps)", "Agent 3 (Gbps)", "Jain"},
	}
	cfg := testbed.HPCLab()
	mk := func() (testbed.Controller, error) { return core.NewAgentByName(algo, 32, seed) }
	a1, err := mk()
	if err != nil {
		return nil, err
	}
	a2, err := mk()
	if err != nil {
		return nil, err
	}
	a3, err := mk()
	if err != nil {
		return nil, err
	}
	tl, err := runScenario(cfg, seed, 720,
		testbed.Participant{Task: endlessTask("t1", 2), Controller: a1},
		testbed.Participant{Task: endlessTask("t2", 2), Controller: a2, JoinAt: 180},
		testbed.Participant{Task: endlessTask("t3", 2), Controller: a3, JoinAt: 360, LeaveAt: 560},
	)
	if err != nil {
		return nil, err
	}
	phase := func(name string, t0, t1 float64, ids ...string) {
		var vals []float64
		cells := []string{name}
		for _, id := range []string{"t1", "t2", "t3"} {
			active := false
			for _, want := range ids {
				if want == id {
					active = true
				}
			}
			if !active {
				cells = append(cells, "-")
				continue
			}
			v := tl.MeanThroughputGbps(id, t0, t1)
			vals = append(vals, v)
			cells = append(cells, fmt.Sprintf("%.2f", v))
		}
		cells = append(cells, fmt.Sprintf("%.3f", stats.JainIndex(vals)))
		r.AddRow(cells...)
	}
	phase("solo [60,180)", 60, 180, "t1")
	phase("two agents [260,360)", 260, 360, "t1", "t2")
	phase("three agents [440,560)", 440, 560, "t1", "t2", "t3")
	phase("after departure [620,720)", 620, 720, "t1", "t2")
	copyChart(r.Chart("throughput"), &tl.Throughput)
	copyChart(r.Chart("concurrency"), &tl.Concurrency)
	r.AddNote("paper: 12-13 Gbps each with two transfers, 7-8 Gbps each with three; remaining agents reclaim bandwidth on departure")
	return r, nil
}

// Fig11 analyses Falcon-GD stability when multiple agents compete.
func Fig11(seed int64) (*Result, error) {
	return competing("fig11", "Falcon-GD under competition (HPCLab)", core.AlgoGradient, seed)
}

// Fig12 analyses Falcon-BO stability when multiple agents compete.
func Fig12(seed int64) (*Result, error) {
	return competing("fig12", "Falcon-BO under competition (HPCLab)", core.AlgoBayesian, seed)
}

// Fig13 tracks the concurrency values of three staggered Falcon-GD
// agents on the 48-optimum Emulab environment: the incumbent reduces
// its concurrency when competitors join and reclaims it when they
// leave.
func Fig13(seed int64) (*Result, error) {
	r := &Result{
		ID:     "fig13",
		Title:  "Concurrency adaptation as Falcon-GD agents join and leave (optimum ≈48)",
		Header: []string{"Phase", "Agent 1 cc", "Agent 2 cc", "Agent 3 cc", "Total cc"},
	}
	cfg := testbed.EmulabGigabit(20.83e6)
	tl, err := runScenario(cfg, seed, 1100,
		testbed.Participant{Task: endlessTask("t1", 2), Controller: core.NewGDAgent(100)},
		testbed.Participant{Task: endlessTask("t2", 2), Controller: core.NewGDAgent(100), JoinAt: 250, LeaveAt: 900},
		testbed.Participant{Task: endlessTask("t3", 2), Controller: core.NewGDAgent(100), JoinAt: 500, LeaveAt: 750},
	)
	if err != nil {
		return nil, err
	}
	cc := func(id string, t0, t1 float64) float64 {
		s := tl.Concurrency.Lookup(id)
		if s == nil {
			return 0
		}
		return s.MeanBetween(t0, t1)
	}
	phase := func(name string, t0, t1 float64, ids ...string) {
		cells := []string{name}
		total := 0.0
		for _, id := range []string{"t1", "t2", "t3"} {
			active := false
			for _, want := range ids {
				if want == id {
					active = true
				}
			}
			if !active {
				cells = append(cells, "-")
				continue
			}
			v := cc(id, t0, t1)
			total += v
			cells = append(cells, fmt.Sprintf("%.0f", v))
		}
		cells = append(cells, fmt.Sprintf("%.0f", total))
		r.AddRow(cells...)
	}
	phase("solo [150,250)", 150, 250, "t1")
	phase("two agents [380,500)", 380, 500, "t1", "t2")
	phase("three agents [620,750)", 620, 750, "t1", "t2", "t3")
	phase("back to two [800,900)", 800, 900, "t1", "t2")
	phase("solo again [1000,1100)", 1000, 1100, "t1")
	copyChart(r.Chart("concurrency"), &tl.Concurrency)
	r.AddNote("paper: solo agent ≈48; with two, incumbent drops to 20-33; with three, all in 10-23; departures reclaimed quickly")
	return r, nil
}
