package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/testbed"
)

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
	// DecideWidth is how many goroutines each shard decided its due
	// sets on (testbed.ShardSet.DecideWidth): a function of the worker
	// budget and the shard count, never of the output.
	DecideWidth int `json:"decide_width"`
	// Fanouts is how many loop heads spread their isolated decisions
	// over the decide width, and IsolatedDecisions how many decisions
	// controllers that declared isolation made (testbed.Counts): with
	// DecideWidth, they say how much of the run could decide in
	// parallel, and how much did.
	Fanouts           uint64 `json:"fanouts"`
	IsolatedDecisions uint64 `json:"isolated_decisions"`
}

// FleetDoc lowers cmd/fleet's flags onto a scenario document: sessions
// Falcon sessions on the "fleet" preset's shared bottleneck, one agent
// spec each, so that session i keeps roster index i and with it the
// agent seed seed+i. Session i, named "s%04d-<algo>", runs algos[i mod
// len(algos)] over concurrency domain [1, maxn] and joins at
// i·stagger, so the fleet ramps up in index order. With links > 1 the
// fleet spreads over that many parallel copies of the preset's link
// (10 Gbps, 15 ms each way, so every route keeps the preset's 30 ms
// RTT) with session i pinned to lnk<i mod links>; the partitioner runs
// each link as its own shard, keyed lnk<k> and seeded seed+k.
func FleetDoc(sessions int, duration, stagger float64, maxn int, seed int64, algos []string, links int) (*scenario.Document, error) {
	if sessions < 1 {
		return nil, fmt.Errorf("fleet: %d sessions; need at least one", sessions)
	}
	if len(algos) == 0 {
		return nil, fmt.Errorf("fleet: no algorithms")
	}
	// Zero values would take the document's defaults instead: a domain
	// bound of 64, a seed of 1.
	if maxn < 2 {
		return nil, fmt.Errorf("fleet: max concurrency %d must be ≥ 2", maxn)
	}
	if seed == 0 {
		return nil, fmt.Errorf("fleet: seed 0 reads as a document's default seed, 1; pick another")
	}
	if lastJoin := float64(sessions-1) * stagger; lastJoin >= duration {
		return nil, fmt.Errorf("fleet: last join %.0fs is past the %.0fs horizon", lastJoin, duration)
	}
	doc := &scenario.Document{
		Preset:          "fleet",
		Seed:            seed,
		DurationSeconds: duration,
		Agents:          make([]scenario.AgentSpec, sessions),
	}
	if links > 1 {
		env, _ := scenario.PresetConfig("fleet")
		doc.Topology = &scenario.TopologySpec{Nodes: []string{"src", "dst"}, Src: "src", Dst: "dst"}
		for k := 0; k < links; k++ {
			doc.Topology.Links = append(doc.Topology.Links, scenario.LinkSpec{
				ID: fmt.Sprintf("lnk%d", k), A: "src", B: "dst", Capacity: env.LinkCapacity, Latency: env.RTT / 2,
			})
		}
	}
	// Every session starts at two streams on a private dataset of
	// 20 000 × 1 GB files, more than a fleet horizon drains. The specs
	// share these two values, so normalising allocates neither per
	// session.
	initial := &scenario.SettingSpec{Concurrency: 2, Parallelism: 1, Pipelining: 1}
	ds := &scenario.DatasetSpec{Count: 20000, Size: 1e9}
	for i := range doc.Agents {
		algo := algos[i%len(algos)]
		a := &doc.Agents[i]
		*a = scenario.AgentSpec{
			ID:             fmt.Sprintf("s%04d-%s", i, algo),
			Count:          1,
			Algorithm:      algo,
			JoinAt:         float64(i) * stagger,
			MaxConcurrency: maxn,
			Initial:        initial,
			Dataset:        ds,
		}
		if links > 1 {
			a.Link = doc.Topology.Links[i%links].ID
		}
	}
	return doc, nil
}

// FleetRun is an executed fleet document awaiting its contention
// report: the simulation and the report are two calls, so a caller can
// time them apart.
type FleetRun struct {
	run         *scenario.Run
	rec         *fleetRecorder
	counts      testbed.Counts
	decideWidth int
}

// Fleet builds and runs a fleet document (FleetDoc) to its horizon,
// streaming every session's throughput into constant-space window
// accumulators instead of keeping per-session timelines. workers is
// the run's worker budget (testbed.ShardSet.SetWorkers); the report
// never depends on it.
//
// Fleet is intentionally NOT registered in All(): it is a scale/stress
// workload driven by cmd/fleet, not a paper figure, and adding it to
// the registry would change reproduce output.
func Fleet(doc *scenario.Document, workers int) (*FleetRun, error) {
	run, err := doc.Build()
	if err != nil {
		return nil, err
	}
	// The recorder finds a session's slot from its ID.
	for i, id := range run.AgentIDs {
		if k, ok := fleetIndex(id); !ok || k != i {
			return nil, fmt.Errorf("fleet: agent %d is %q, not a fleet session (s%04d-<algo>)", i, id, i)
		}
	}
	rec := newFleetRecorder(len(run.AgentIDs), doc.DurationSeconds, lastJoinOf(run))
	ss, err := testbed.NewShardSet(run.ShardSpecs(), doc.RecordSeconds)
	if err != nil {
		return nil, err
	}
	ss.SetWorkers(workers)
	ss.SetRecording(testbed.RecordAggregate, rec)
	if _, err := ss.Run(doc.DurationSeconds, doc.TickSeconds); err != nil {
		return nil, err
	}
	return &FleetRun{run: run, rec: rec, counts: ss.Counts(), decideWidth: ss.DecideWidth()}, nil
}

// Counts reports how the simulation ran: its work counts summed over
// the shards and the width each shard decided on.
func (f *FleetRun) Counts() (testbed.Counts, int) { return f.counts, f.decideWidth }

// lastJoinOf is the latest join in the run's roster.
func lastJoinOf(run *scenario.Run) float64 {
	last := 0.0
	for _, p := range run.Participants {
		last = max(last, p.JoinAt)
	}
	return last
}

// Report renders the executed fleet's contention report: per-algorithm
// equilibrium throughput and fairness, the fleet-wide convergence
// time, and the aggregate throughput.
func (f *FleetRun) Report() (*Result, *FleetSummary) {
	r, sum := fleetReport(f.run, f.rec.stats())
	sum.DecideWidth = f.decideWidth
	sum.Fanouts, sum.IsolatedDecisions = f.counts.Fanouts, f.counts.Isolated
	return r, sum
}

// fleetReport renders a fleet's report from its distilled statistics.
//
// Convergence time is the earliest window start t ≥ the last join at
// which Jain's index over per-session mean throughputs in [t, t+W]
// reaches 0.9 (W is a tenth of the horizon, slid in half-window
// steps). Equilibrium metrics are taken over the final quarter of the
// run.
func fleetReport(run *scenario.Run, fs *fleetStats) (*Result, *FleetSummary) {
	doc := run.Doc
	duration := doc.DurationSeconds
	lastJoin := lastJoinOf(run)
	links := 1
	if doc.Topology != nil {
		links = len(doc.Topology.Links)
	}
	linkGbps := run.Config.LinkCapacity / 1e9
	algoOf := make([]string, 0, len(run.AgentIDs))
	var mix []string
	for _, a := range doc.Agents {
		for j := 0; j < a.Count; j++ {
			algoOf = append(algoOf, a.Algorithm)
		}
		if !slices.Contains(mix, a.Algorithm) {
			mix = append(mix, a.Algorithm)
		}
	}

	bottle := fmt.Sprintf("one %.0f Gbps bottleneck", linkGbps)
	if links > 1 {
		bottle = fmt.Sprintf("%d × %.0f Gbps bottlenecks", links, linkGbps)
	}
	r := &Result{
		ID: "fleet",
		Title: fmt.Sprintf("Fleet contention: %d sessions (%s) on %s",
			len(algoOf), strings.Join(mix, "/"), bottle),
		Header: []string{"Algorithm", "Sessions", "Mean ± σ (Mbps, equilibrium)", "p50/p90/p99 (Mbps)", "Jain (within algo)"},
	}

	aggregate := 0.0
	perAlgo := map[string][]float64{}
	for i, m := range fs.eqMeans {
		aggregate += m
		perAlgo[algoOf[i]] = append(perAlgo[algoOf[i]], m)
	}
	eqJain := stats.JainIndex(fs.eqMeans)
	eq0, eq1 := duration*3/4, duration
	window := duration / 10

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
	if links == 1 {
		r.AddNote("equilibrium [%.0fs, %.0fs]: Jain %.3f, aggregate %.2f Gbps (link %.0f Gbps)",
			eq0, eq1, eqJain, aggregate, linkGbps)
	} else {
		r.AddNote("equilibrium [%.0fs, %.0fs]: Jain %.3f, aggregate %.2f Gbps (%d × %.0f Gbps links)",
			eq0, eq1, eqJain, aggregate, links, linkGbps)
	}
	return r, &FleetSummary{
		Sessions:           len(algoOf),
		Links:              links,
		DurationSeconds:    duration,
		SessionSeconds:     doc.SessionSeconds(),
		ConvergedAtSeconds: fs.converged,
		EquilibriumJain:    eqJain,
		AggregateGbps:      aggregate,
	}
}
