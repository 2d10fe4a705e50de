package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/testbed"
	"repro/internal/transfer"
)

// Fig14 compares Falcon (GD and BO) against Globus and HARP for the
// 1 TB dataset on the three real-cluster testbeds.
func Fig14(seed int64) (*Result, error) {
	r := &Result{
		ID:     "fig14",
		Title:  "Falcon vs state-of-the-art (1 TB dataset)",
		Header: []string{"Testbed", "Globus (Gbps)", "HARP (Gbps)", "Falcon-GD (Gbps)", "Falcon-BO (Gbps)", "Falcon/Globus"},
	}
	ds := dataset.Main()
	// HARP history: trained on a 10 Gbps-class network, as the paper's
	// deployments were.
	hist := baselines.SyntheticHistory(1.2e9, 9.5e9, 16)
	cfgs := []testbed.Config{testbed.HPCLab(), testbed.XSEDE(), testbed.CampusCluster()}
	names := []string{"globus", "harp", "falcon-gd", "falcon-bo"}
	const horizon = 300.0
	tputs, err := parallel.Map(len(cfgs)*len(names), func(i int) (float64, error) {
		name := names[i%len(names)]
		var ctrl testbed.Controller
		initial := transfer.DefaultSetting()
		initial.Concurrency = 2
		switch name {
		case "globus":
			globus, err := baselines.NewGlobus(ds)
			if err != nil {
				return 0, err
			}
			ctrl, initial = globus, globus.Setting()
		case "harp":
			harp, err := baselines.NewHARP(hist, 64)
			if err != nil {
				return 0, err
			}
			ctrl, initial = harp, harp.Setting()
		case "falcon-gd":
			ctrl = core.NewGDAgent(32)
		default:
			ctrl = core.NewBOAgent(32, seed)
		}
		task := mustTask(name, dataset.Uniform(name, 20000, int64(dataset.GB)), initial)
		tl, err := runScenario(cfgs[i/len(names)], seed, horizon, testbed.Participant{Task: task, Controller: ctrl})
		if err != nil {
			return 0, err
		}
		return tl.MeanThroughputGbps(name, horizon*0.4, horizon), nil
	})
	if err != nil {
		return nil, err
	}
	for c, cfg := range cfgs {
		gT, hT, gdT, boT := tputs[4*c], tputs[4*c+1], tputs[4*c+2], tputs[4*c+3]
		r.AddRow(cfg.Name,
			fmt.Sprintf("%.2f", gT), fmt.Sprintf("%.2f", hT),
			fmt.Sprintf("%.2f", gdT), fmt.Sprintf("%.2f", boT),
			fmt.Sprintf("%.1fx", gdT/gT))
		r.AddNote("%s: Falcon over Globus %.1fx (paper: 2-6x), over HARP %.1fx (paper: 1.3-1.5x on HPCLab/XSEDE)",
			cfg.Name, gdT/gT, gdT/hT)
	}
	return r, nil
}

// Fig15 compares single-parameter Falcon (concurrency only) with
// multi-parameter Falcon_MP (concurrency, parallelism, pipelining) on
// the Stampede2–Comet WAN for the small, large, and mixed datasets.
func Fig15(seed int64) (*Result, error) {
	r := &Result{
		ID:     "fig15",
		Title:  "Single- vs multi-parameter Falcon (Stampede2–Comet WAN)",
		Header: []string{"Dataset", "Falcon (Gbps)", "Falcon_MP (Gbps)", "MP gain"},
	}
	cfg := testbed.StampedeCometWAN()
	sets := []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"small", dataset.Small(seed)},
		{"large", dataset.Large(seed)},
		{"mixed", dataset.Mixed(seed)},
	}
	const horizon = 420.0
	tputs, err := parallel.Map(2*len(sets), func(i int) (float64, error) {
		id, start := "falcon", transfer.Setting{Concurrency: 2, Parallelism: 1, Pipelining: 1}
		var ctrl testbed.Controller = core.NewGDAgent(32)
		if i%2 == 1 {
			id, start = "falcon-mp", transfer.Setting{Concurrency: 2, Parallelism: 2, Pipelining: 2}
			ctrl = core.NewDefaultMultiAgent(32, 8, 32)
		}
		tl, err := runScenario(cfg, seed, horizon,
			testbed.Participant{Task: mustTask(id, sets[i/2].ds, start), Controller: ctrl})
		if err != nil {
			return 0, err
		}
		return tl.MeanThroughputGbps(id, horizon*0.3, horizon), nil
	})
	if err != nil {
		return nil, err
	}
	for k, s := range sets {
		t1, t2 := tputs[2*k], tputs[2*k+1]
		r.AddRow(s.name, fmt.Sprintf("%.2f", t1), fmt.Sprintf("%.2f", t2), fmt.Sprintf("%+.0f%%", 100*(t2/t1-1)))
	}
	r.AddNote("paper: MP up to +30%% for small/mixed (pipelining), −18%% for large (slower convergence, non-concave Eq 7)")
	return r, nil
}

// Fig16 measures Falcon's friendliness toward Globus and HARP: on the
// WAN, Globus starts first, HARP second, then a Falcon agent joins.
// GD utilises the spare capacity with only marginal impact; BO probes
// high concurrency and is markedly more aggressive.
func Fig16(seed int64) (*Result, error) {
	r := &Result{
		ID:     "fig16",
		Title:  "Friendliness toward non-Falcon transfers (Stampede2–Comet WAN)",
		Header: []string{"Scenario", "Globus (Gbps)", "HARP (Gbps)", "Falcon (Gbps)", "Steady impact", "Worst 30s dip"},
	}
	cfg := testbed.StampedeCometWAN()
	ds := dataset.Friendliness(seed)
	const horizon = 600.0

	scenarios := []struct{ label, algo string }{
		{"Falcon-GD joins", core.AlgoGradient},
		{"Falcon-BO joins", core.AlgoBayesian},
	}
	tls, err := parallel.Map(len(scenarios), func(i int) (*testbed.Timeline, error) {
		globus, err := baselines.NewGlobus(ds)
		if err != nil {
			return nil, err
		}
		harp, err := baselines.NewHARP(baselines.SyntheticHistory(1.1e9, 10.5e9, 16), 64)
		if err != nil {
			return nil, err
		}
		falcon, err := core.NewAgentByName(scenarios[i].algo, 64, seed)
		if err != nil {
			return nil, err
		}
		start := transfer.Setting{Concurrency: 2, Parallelism: 1, Pipelining: 1}
		return runScenario(cfg, seed, horizon,
			testbed.Participant{Task: mustTask("globus", dataset.Uniform("g", 20000, int64(dataset.GB)), globus.Setting()), Controller: globus},
			testbed.Participant{Task: mustTask("harp", dataset.Uniform("h", 20000, int64(dataset.GB)), harp.Setting()), Controller: harp, JoinAt: 60},
			testbed.Participant{Task: mustTask("falcon", dataset.Uniform("f", 20000, int64(dataset.GB)), start), Controller: falcon, JoinAt: 120},
		)
	})
	if err != nil {
		return nil, err
	}
	for i, sc := range scenarios {
		tl := tls[i]
		// Throughput of the incumbents before vs after Falcon joins:
		// steady-state impact plus the worst 30 s window (BO's
		// high-concurrency probing shows up as a transient dip even
		// when its equilibrium is polite).
		gBefore := tl.MeanThroughputGbps("globus", 80, 120)
		hBefore := tl.MeanThroughputGbps("harp", 90, 120)
		gAfter := tl.MeanThroughputGbps("globus", 300, horizon)
		hAfter := tl.MeanThroughputGbps("harp", 300, horizon)
		fT := tl.MeanThroughputGbps("falcon", 300, horizon)
		worst := gBefore + hBefore
		for t0 := 130.0; t0+30 <= horizon; t0 += 10 {
			if v := tl.MeanThroughputGbps("globus", t0, t0+30) + tl.MeanThroughputGbps("harp", t0, t0+30); v < worst {
				worst = v
			}
		}
		impact := 100 * (1 - (gAfter+hAfter)/(gBefore+hBefore))
		dip := 100 * (1 - worst/(gBefore+hBefore))
		r.AddRow(sc.label,
			fmt.Sprintf("%.2f→%.2f", gBefore, gAfter),
			fmt.Sprintf("%.2f→%.2f", hBefore, hAfter),
			fmt.Sprintf("%.2f", fT),
			fmt.Sprintf("%.0f%%", impact),
			fmt.Sprintf("%.0f%%", dip))
		copyChart(r.Chart("throughput-"+sc.label), &tl.Throughput)
	}
	r.AddNote("paper: GD affects incumbents only 15-20%%; BO is aggressive (up to ~70%% degradation)")
	return r, nil
}
