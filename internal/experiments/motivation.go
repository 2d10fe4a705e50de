package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/testbed"
	"repro/internal/transfer"
)

// Table1 reports the specifications of the four evaluation testbeds and
// the capacities profiling tools would measure on them ("true"
// capacities, as the paper determines with Iperf and bonnie++).
func Table1(seed int64) (*Result, error) {
	r := &Result{
		ID:     "table1",
		Title:  "Specifications of test environments",
		Header: []string{"Testbed", "Storage", "Bandwidth", "RTT", "Bottleneck", "E2E capacity (Gbps)", "Saturation cc"},
	}
	for _, cfg := range testbed.Table1() {
		eng, err := testbed.NewEngine(cfg, seed)
		if err != nil {
			return nil, err
		}
		r.AddRow(
			cfg.Name,
			cfg.SrcStore.Name+" → "+cfg.DstStore.Name,
			gbps(cfg.LinkCapacity)+"G",
			fmt.Sprintf("%.1fms", cfg.RTT*1000),
			cfg.Bottleneck,
			gbps(eng.EndToEndCapacity()),
			fmt.Sprintf("%d", eng.SaturationConcurrency()),
		)
	}
	r.AddNote("bottlenecks follow the paper's Table 1: Network, Disk Read, Disk Write, NIC")
	return r, nil
}

// Fig1a sweeps concurrency for HPCLab and XSEDE transfers of 1 GiB
// files, reproducing the 3–15× gain over concurrency 1.
func Fig1a(seed int64) (*Result, error) {
	r := &Result{
		ID:     "fig1a",
		Title:  "Impact of concurrency on throughput (500×1 GiB)",
		Header: []string{"Concurrency", "HPCLab (Gbps)", "XSEDE (Gbps)"},
	}
	values := []int{1, 2, 4, 8, 12, 16, 24, 32}
	mk := func() *transfer.Task { return endlessTask("sweep", 1) }
	hpclab, _, err := testbed.SweepConcurrency(testbed.HPCLab(), seed, mk, values, 15, 6)
	if err != nil {
		return nil, err
	}
	xsede, _, err := testbed.SweepConcurrency(testbed.XSEDE(), seed, mk, values, 15, 6)
	if err != nil {
		return nil, err
	}
	for i, n := range values {
		r.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.2f", hpclab[i]), fmt.Sprintf("%.2f", xsede[i]))
	}
	r.AddNote("gain over cc=1: HPCLab %.1fx, XSEDE %.1fx (paper: 3-15x)",
		maxOf(hpclab)/hpclab[0], maxOf(xsede)/xsede[0])
	return r, nil
}

// Fig1b profiles the optimal concurrency in each environment — the
// value depends on the testbed, motivating an adaptive solution.
func Fig1b(seed int64) (*Result, error) {
	r := &Result{
		ID:     "fig1b",
		Title:  "Optimal concurrency depends on the environment",
		Header: []string{"Environment", "Optimal concurrency", "Throughput at optimum (Gbps)"},
	}
	type env struct {
		name string
		cfg  testbed.Config
		maxN int
	}
	envs := []env{
		{"emulab (10M/proc)", testbed.Emulab(10e6), 16},
		{"emulab-1g (20.8M/proc)", testbed.EmulabGigabit(20.83e6), 56},
		{"xsede", testbed.XSEDE(), 16},
		{"hpclab", testbed.HPCLab(), 16},
		{"campus", testbed.CampusCluster(), 16},
	}
	mk := func() *transfer.Task { return endlessTask("opt", 1) }
	if err := addRows(r, envs, func(e env) ([]string, error) {
		opt, err := testbed.OptimalConcurrency(e.cfg, seed, mk, e.maxN, 0.03)
		if err != nil {
			return nil, err
		}
		tputs, _, err := testbed.SweepConcurrency(e.cfg, seed, mk, []int{opt}, 15, 6)
		if err != nil {
			return nil, err
		}
		return []string{e.name, fmt.Sprintf("%d", opt), fmt.Sprintf("%.2f", tputs[0])}, nil
	}); err != nil {
		return nil, err
	}
	r.AddNote("no single concurrency value is optimal everywhere — the paper's case for online adaptation")
	return r, nil
}

// Fig2a runs Globus and HARP alone on the HPCLab-class fast network.
// Globus's fixed conservative setting and HARP's wrong-network history
// both leave throughput on the table.
func Fig2a(seed int64) (*Result, error) {
	r := &Result{
		ID:     "fig2a",
		Title:  "State-of-the-art single-transfer performance (fast network)",
		Header: []string{"System", "Mean throughput (Gbps)", "Limit"},
	}
	cfg := testbed.HPCLab()
	ds := dataset.Main()

	tls, err := parallel.Map(2, func(i int) (*testbed.Timeline, error) {
		if i == 0 {
			globus, err := baselines.NewGlobus(ds)
			if err != nil {
				return nil, err
			}
			gt := mustTask("globus", dataset.Uniform("g", 20000, int64(dataset.GB)), globus.Setting())
			return runScenario(cfg, seed, 180, testbed.Participant{Task: gt, Controller: globus})
		}
		// HARP trained in a 10 Gbps network (Figure 2a's premise).
		harp, err := baselines.NewHARP(baselines.SyntheticHistory(1.2e9, 9.5e9, 16), 64)
		if err != nil {
			return nil, err
		}
		ht := mustTask("harp", dataset.Uniform("h", 20000, int64(dataset.GB)), harp.Setting())
		return runScenario(cfg, seed, 180, testbed.Participant{Task: ht, Controller: harp})
	})
	if err != nil {
		return nil, err
	}
	tlG, tlH := tls[0], tls[1]
	gTput := tlG.MeanThroughputGbps("globus", 60, 180)
	hTput := tlH.MeanThroughputGbps("harp", 60, 180)

	eng, err := testbed.NewEngine(cfg, seed)
	if err != nil {
		return nil, err
	}
	maxTput := eng.EndToEndCapacity() / 1e9

	r.AddRow("Globus", fmt.Sprintf("%.2f", gTput), "fixed cc=2, never adapts")
	r.AddRow("HARP", fmt.Sprintf("%.2f", hTput), "history from a 10G network caps its belief")
	r.AddRow("(capacity)", fmt.Sprintf("%.2f", maxTput), "")
	r.AddNote("HARP at %.0f%% of capacity (paper: ~50%%); Globus lower still", 100*hTput/maxTput)
	copyChart(r.Chart("throughput"), &tlG.Throughput)
	copyChart(r.Chart("throughput"), &tlH.Throughput)
	return r, nil
}

// Fig2b staggers two HARP transfers: the late-comer observes depressed
// per-process throughput, compensates with more concurrency, and takes
// an unfair share.
func Fig2b(seed int64) (*Result, error) {
	r := &Result{
		ID:     "fig2b",
		Title:  "HARP late-comer advantage",
		Header: []string{"Transfer", "Mean throughput while sharing (Gbps)", "Concurrency"},
	}
	cfg := testbed.HPCLab()
	hist := baselines.SyntheticHistory(1.2e9, 9.5e9, 16)
	h1, err := baselines.NewHARP(hist, 64)
	if err != nil {
		return nil, err
	}
	h2, err := baselines.NewHARP(hist, 64)
	if err != nil {
		return nil, err
	}
	// The incumbent recalibrates only once at the start (tune-once), so
	// it cannot respond to the late-comer; the late-comer calibrates
	// *while sharing* and over-provisions.
	h1.Recalibrate = 0
	h2.Recalibrate = 0
	t1 := mustTask("harp-first", dataset.Uniform("h1", 20000, int64(dataset.GB)), h1.Setting())
	t2 := mustTask("harp-second", dataset.Uniform("h2", 20000, int64(dataset.GB)), h2.Setting())
	tl, err := runScenario(cfg, seed, 360,
		testbed.Participant{Task: t1, Controller: h1},
		testbed.Participant{Task: t2, Controller: h2, JoinAt: 120},
	)
	if err != nil {
		return nil, err
	}
	first := tl.MeanThroughputGbps("harp-first", 200, 360)
	second := tl.MeanThroughputGbps("harp-second", 200, 360)
	r.AddRow("first", fmt.Sprintf("%.2f", first), fmt.Sprintf("%d", t1.Setting().Concurrency))
	r.AddRow("second (late-comer)", fmt.Sprintf("%.2f", second), fmt.Sprintf("%d", t2.Setting().Concurrency))
	r.AddNote("late-comer/incumbent throughput ratio %.2fx (paper: ~2x)", second/first)
	copyChart(r.Chart("throughput"), &tl.Throughput)
	return r, nil
}

// Fig4 sweeps concurrency on the Emulab topology of Figure 3 (10 Mbps
// per-process I/O, 100 Mbps bottleneck link) and reports throughput and
// packet loss: loss stays below ~2 % up to the saturating concurrency
// of 10, then grows steeply toward ~10 % at 32.
func Fig4(seed int64) (*Result, error) {
	r := &Result{
		ID:     "fig4",
		Title:  "Concurrency vs throughput and packet loss (Emulab)",
		Header: []string{"Concurrency", "Throughput (Mbps)", "Packet loss"},
	}
	cfg := testbed.Emulab(10e6)
	cfg.NoiseStdDev = 0
	values := []int{1, 2, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32}
	mk := func() *transfer.Task { return endlessTask("sweep", 1) }
	tputs, losses, err := testbed.SweepConcurrency(cfg, seed, mk, values, 15, 6)
	if err != nil {
		return nil, err
	}
	knee := -1
	for i, n := range values {
		r.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.1f", tputs[i]*1000), pct(losses[i]))
		if knee < 0 && losses[i] > 0.02 {
			knee = n
		}
	}
	r.AddNote("loss exceeds 2%% first at cc=%d (paper: just past 10); loss at 32 = %s (paper: ~10%%)",
		knee, pct(losses[len(losses)-1]))
	return r, nil
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
