package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// FleetConfig parameterizes a fleet-scale contention run: many
// concurrent Falcon sessions optimizing independently against one
// shared bottleneck. It is the workload the flow-class aggregated
// allocator exists for — hundreds of flows collapsing to a handful of
// classes.
type FleetConfig struct {
	// Sessions is the number of concurrent transfer sessions.
	Sessions int
	// Duration is the simulated horizon in seconds.
	Duration float64
	// Stagger is the join spacing in seconds: session i joins at
	// i*Stagger, so the fleet ramps up instead of thundering in at t=0.
	Stagger float64
	// MaxN bounds each agent's concurrency search domain.
	MaxN int
	// Seed is the base seed; session i's agent is seeded Seed+i.
	Seed int64
	// Algorithms are cycled across sessions by index. Empty means
	// the hc/gd/bo mix.
	Algorithms []string
	// Links is the number of independent 10 Gbps bottleneck links.
	// Session i routes over link i mod Links, and each link runs as
	// its own shard (testbed.ShardSet) because its sessions never
	// contend with the others'. Default 1 — the classic single
	// shared bottleneck.
	Links int
	// Workers bounds how many shards step concurrently (≤1 serial,
	// 0 the parallel harness default). Never affects output.
	Workers int
	// RecordMode selects the run's recording fidelity: "full" (the
	// default) keeps per-session throughput/concurrency/loss series,
	// "aggregate" streams recording points into constant-space
	// per-window accumulators (the million-session memory diet), and
	// "off" records nothing. Every reported metric is bitwise
	// identical between full and aggregate; off skips metrics
	// entirely.
	RecordMode string
}

// withDefaults fills zero fields with the standard fleet shape:
// 500 sessions for 600 s on one 10 Gbps bottleneck.
func (c FleetConfig) withDefaults() FleetConfig {
	if c.Sessions <= 0 {
		c.Sessions = 500
	}
	if c.Duration <= 0 {
		c.Duration = 600
	}
	if c.Stagger < 0 {
		c.Stagger = 0
	}
	if c.MaxN <= 0 {
		c.MaxN = 8
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = []string{core.AlgoHillClimbing, core.AlgoGradient, core.AlgoBayesian}
	}
	if c.Links <= 0 {
		c.Links = 1
	}
	if c.RecordMode == "" {
		c.RecordMode = testbed.RecordFull.String()
	}
	return c
}

// FleetSummary is the machine-readable distillation of a fleet run,
// for cmd/fleet -json and the benchmark harness.
type FleetSummary struct {
	Sessions        int     `json:"sessions"`
	Links           int     `json:"links"`
	DurationSeconds float64 `json:"duration_seconds"`
	// SessionSeconds is the simulated session time the run covered: Σ
	// over sessions of (horizon − join).
	SessionSeconds float64 `json:"session_seconds"`
	// ConvergedAtSeconds is the earliest window start at which the
	// fleet-wide Jain index reached 0.9, or -1 when it never did.
	ConvergedAtSeconds float64 `json:"converged_at_seconds"`
	EquilibriumJain    float64 `json:"equilibrium_jain"`
	AggregateGbps      float64 `json:"aggregate_gbps"`
	// RecordMode is the recording fidelity the run used.
	RecordMode string `json:"record_mode"`
	// DecideWidth is how many goroutines each shard decided its due
	// sets on (testbed.ShardSet.DecideWidth): a function of the worker
	// budget and the shard count, never of the output.
	DecideWidth int `json:"decide_width"`
}

// FleetTestbed returns the shared-bottleneck environment for fleet
// runs: a 10 Gbps WAN-ish path (30 ms RTT) whose storage and hosts are
// provisioned far above the link, so every session contends for the
// same network resource. Per-process storage caps are loose enough
// that the per-connection cap is the stream cap, identical across the
// fleet — with one parallelism setting in play, every flow lands in a
// handful of classes regardless of session count. The environment
// itself is the scenario subsystem's "fleet" preset; this is a thin
// wrapper so fleet experiments, scenario documents, and the cmds all
// resolve the same config.
func FleetTestbed() testbed.Config {
	cfg, ok := scenario.PresetConfig("fleet")
	if !ok {
		panic("experiments: scenario preset \"fleet\" missing")
	}
	return cfg
}

// Fleet runs cfg.Sessions concurrent Falcon sessions (HC/GD/BO mix by
// default) against the shared FleetTestbed bottleneck and reports
// convergence time, Jain's fairness index, and aggregate throughput.
//
// Convergence time is the earliest window start t ≥ the last join at
// which Jain's index over per-session mean throughputs in [t, t+W]
// reaches 0.9 (W is a tenth of the horizon, slid in half-window
// steps). Equilibrium metrics are taken over the final quarter of the
// run.
//
// Fleet is intentionally NOT registered in All(): it is a scale/stress
// workload driven by cmd/fleet, not a paper figure, and adding it to
// the registry would change reproduce output.
func Fleet(cfg FleetConfig) (*Result, *FleetSummary, error) {
	cfg = cfg.withDefaults()
	mode, err := testbed.ParseRecordMode(cfg.RecordMode)
	if err != nil {
		return nil, nil, err
	}
	env := FleetTestbed()
	bottle := fmt.Sprintf("one %.0f Gbps bottleneck", env.LinkCapacity/1e9)
	if cfg.Links > 1 {
		bottle = fmt.Sprintf("%d × %.0f Gbps bottlenecks", cfg.Links, env.LinkCapacity/1e9)
	}
	r := &Result{
		ID: "fleet",
		Title: fmt.Sprintf("Fleet contention: %d sessions (%s) on %s",
			cfg.Sessions, strings.Join(cfg.Algorithms, "/"), bottle),
		Header: []string{"Algorithm", "Sessions", "Mean ± σ (Mbps, equilibrium)", "p50/p90/p99 (Mbps)", "Jain (within algo)"},
	}

	// Session i joins at i·Stagger: the fleet ramps up in index order.
	lastJoin := float64(cfg.Sessions-1) * cfg.Stagger
	if lastJoin >= cfg.Duration {
		return nil, nil, fmt.Errorf("fleet: last join %.0fs is past the %.0fs horizon", lastJoin, cfg.Duration)
	}

	shards := make([]testbed.ShardSpec, cfg.Links)
	for k := range shards {
		shards[k] = testbed.ShardSpec{
			Key:    fmt.Sprintf("lnk%d", k),
			Config: env,
			Seed:   cfg.Seed + int64(k),
		}
	}
	ids := make([]string, cfg.Sessions)
	algoOf := make([]string, cfg.Sessions)
	sessionSeconds := 0.0
	for i := 0; i < cfg.Sessions; i++ {
		algo := cfg.Algorithms[i%len(cfg.Algorithms)]
		agent, err := core.NewFleetAgent(algo, cfg.MaxN, cfg.Seed+int64(i))
		if err != nil {
			return nil, nil, err
		}
		k := i % cfg.Links
		id := fmt.Sprintf("s%04d-%s", i, algo)
		ids[i] = id
		algoOf[i] = algo
		join := float64(i) * cfg.Stagger
		sessionSeconds += cfg.Duration - join
		shards[k].Parts = append(shards[k].Parts, testbed.Participant{
			Task:       endlessTask(id, 2),
			Controller: agent,
			JoinAt:     join,
		})
	}

	ss, err := testbed.NewShardSet(shards, 1)
	if err != nil {
		return nil, nil, err
	}
	ss.SetWorkers(cfg.Workers)
	var rec *fleetRecorder
	switch mode {
	case testbed.RecordAggregate:
		rec = newFleetRecorder(cfg.Sessions, cfg.Duration, lastJoin)
		ss.SetRecording(mode, rec)
	case testbed.RecordOff:
		ss.SetRecording(mode, nil)
	}
	tl, err := ss.Run(cfg.Duration, 0.25)
	if err != nil {
		return nil, nil, err
	}

	sum := &FleetSummary{
		Sessions:           cfg.Sessions,
		Links:              cfg.Links,
		DurationSeconds:    cfg.Duration,
		SessionSeconds:     sessionSeconds,
		ConvergedAtSeconds: -1,
		RecordMode:         mode.String(),
		DecideWidth:        ss.DecideWidth(),
	}

	if mode == testbed.RecordOff {
		r.AddNote("record mode off: per-session metrics not recorded")
		return r, sum, nil
	}
	var fs *fleetStats
	if mode == testbed.RecordAggregate {
		fs = rec.stats()
	} else {
		fs = fleetStatsFromTimeline(tl, cfg, ids, lastJoin)
	}

	aggregate := 0.0
	perAlgo := map[string][]float64{}
	for i, m := range fs.eqMeans {
		aggregate += m
		perAlgo[algoOf[i]] = append(perAlgo[algoOf[i]], m)
	}
	eqJain := stats.JainIndex(fs.eqMeans)
	eq0, eq1 := cfg.Duration*3/4, cfg.Duration
	window := cfg.Duration / 10

	algos := make([]string, 0, len(perAlgo))
	for a := range perAlgo {
		algos = append(algos, a)
	}
	sort.Strings(algos)
	for _, a := range algos {
		ms := perAlgo[a]
		var st stats.Streaming
		for _, m := range ms {
			st.Add(m)
		}
		r.AddRow(a, fmt.Sprintf("%d", len(ms)),
			fmt.Sprintf("%.1f ± %.1f", st.Mean()*1000, st.StdDev()*1000),
			fmt.Sprintf("%.1f/%.1f/%.1f",
				stats.Percentile(ms, 50)*1000, stats.Percentile(ms, 90)*1000, stats.Percentile(ms, 99)*1000),
			fmt.Sprintf("%.3f", stats.JainIndex(ms)))
	}
	if fs.converged >= 0 {
		r.AddNote("fleet Jain ≥0.9 from t=%.0fs (last join %.0fs, window %.0fs)", fs.converged, lastJoin, window)
	} else {
		r.AddNote("fleet Jain never reached 0.9 after the last join at %.0fs", lastJoin)
	}
	if cfg.Links == 1 {
		r.AddNote("equilibrium [%.0fs, %.0fs]: Jain %.3f, aggregate %.2f Gbps (link %.0f Gbps)",
			eq0, eq1, eqJain, aggregate, env.LinkCapacity/1e9)
	} else {
		r.AddNote("equilibrium [%.0fs, %.0fs]: Jain %.3f, aggregate %.2f Gbps (%d × %.0f Gbps links)",
			eq0, eq1, eqJain, aggregate, cfg.Links, env.LinkCapacity/1e9)
	}
	sum.ConvergedAtSeconds = fs.converged
	sum.EquilibriumJain = eqJain
	sum.AggregateGbps = aggregate
	return r, sum, nil
}

// fleetStatsFromTimeline computes the fleet metrics from full-fidelity
// per-session series — the reference arithmetic the streaming
// fleetRecorder replicates bitwise.
func fleetStatsFromTimeline(tl *testbed.Timeline, cfg FleetConfig, ids []string, lastJoin float64) *fleetStats {
	// Convergence: slide a window of a tenth of the horizon from the
	// last join forward in half-window steps until the fleet-wide Jain
	// index over per-session means reaches 0.9.
	window := cfg.Duration / 10
	fleetJain := func(t0, t1 float64) float64 {
		means := make([]float64, cfg.Sessions)
		for i, id := range ids {
			means[i] = tl.MeanThroughputGbps(id, t0, t1)
		}
		return stats.JainIndex(means)
	}
	converged := -1.0
	for t := lastJoin; t+window <= cfg.Duration; t += window / 2 {
		if fleetJain(t, t+window) >= 0.9 {
			converged = t
			break
		}
	}

	// Equilibrium: final quarter of the run.
	eq0, eq1 := cfg.Duration*3/4, cfg.Duration
	eqMeans := make([]float64, cfg.Sessions)
	for i, id := range ids {
		eqMeans[i] = tl.MeanThroughputGbps(id, eq0, eq1)
	}
	return &fleetStats{converged: converged, eqMeans: eqMeans}
}
