package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// FleetFlapDoc returns the canonical dynamic-network scenario: a
// mixed hc/gd/bo fleet on the shared "fleet" bottleneck, disturbed by
// a cross-traffic wave that claims three quarters of the 10 Gbps link
// mid-run. The same document is checked in as
// examples/scenarios/fleet-flap.json (a test pins the two equal), so
// `falconsim -scenario`, `fleet -scenario`, the webservice POST API,
// and the fleet-flap experiment all run the identical scenario.
func FleetFlapDoc() *scenario.Document {
	return &scenario.Document{
		Version:         scenario.Version,
		Name:            "fleet-flap",
		Preset:          "fleet",
		Seed:            1,
		DurationSeconds: 600,
		Agents: []scenario.AgentSpec{
			{ID: "hc", Count: 20, Algorithm: "hc", JoinStagger: 3, MaxConcurrency: 8,
				Dataset: &scenario.DatasetSpec{Label: "fleet"}},
			{ID: "gd", Count: 20, Algorithm: "gd", JoinAt: 1, JoinStagger: 3, MaxConcurrency: 8,
				Dataset: &scenario.DatasetSpec{Label: "fleet"}},
			{ID: "bo", Count: 20, Algorithm: "bo", JoinAt: 2, JoinStagger: 3, MaxConcurrency: 8,
				Dataset: &scenario.DatasetSpec{Label: "fleet"}},
		},
		Mutations: []scenario.MutationSpec{
			{At: 300, Kind: scenario.KindCrossTraffic, Rate: 7.5e9, DurationSeconds: 120},
		},
	}
}

// DynamicFleet executes a scenario document and reports
// time-to-refairness: for every compiled link-capacity horizon, the
// fleet-wide Jain index immediately before the change, the deepest dip
// after it, and when (and whether) the fleet re-converges to Jain ≥
// 0.95 — the paper's online-tuning argument quantified under a
// non-stationary network. A document without link-capacity horizons
// gets no rows, only the final-window Jain / aggregate note. workers is
// the run's worker budget (scenario.ExecOptions.Workers): ≤1 serial,
// except 0, the parallel harness default; the report never depends on
// it.
func DynamicFleet(doc *scenario.Document, workers int) (*Result, error) {
	d, err := ExecuteDynamicFleet(doc, workers)
	if err != nil {
		return nil, err
	}
	return d.Report(), nil
}

// DynamicRun is an executed scenario document awaiting its
// time-to-refairness report: DynamicFleet split in two, so a caller can
// time the simulation apart from the report.
type DynamicRun struct {
	doc    *scenario.Document
	run    *scenario.Run
	events []testbed.Mutation
	tl     *testbed.Timeline
}

// Counts reports how the simulation ran (scenario.Run.Counts).
func (d *DynamicRun) Counts() (testbed.Counts, int) { return d.run.Counts() }

// ExecuteDynamicFleet builds and runs the document — DynamicFleet's
// simulation half.
func ExecuteDynamicFleet(doc *scenario.Document, workers int) (*DynamicRun, error) {
	run, err := doc.Build()
	if err != nil {
		return nil, err
	}
	// Gather the link-capacity horizons from the per-shard schedules:
	// a mutation on a pinned route compiles only into the shard it
	// touches, so the legacy default-route schedule alone would miss
	// it. Shard order breaks same-time ties deterministically.
	var events []testbed.Mutation
	for _, sp := range run.Shards {
		for _, m := range sp.Mutations {
			if m.Kind == testbed.MutLinkCapacity {
				events = append(events, m)
			}
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	tl, err := run.Execute(scenario.ExecOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	return &DynamicRun{doc: doc, run: run, events: events, tl: tl}, nil
}

// Report renders the executed run's time-to-refairness table —
// DynamicFleet's report half.
func (d *DynamicRun) Report() *Result {
	doc, run, events, tl := d.doc, d.run, d.events, d.tl
	r := &Result{
		ID: "fleet-flap",
		Title: fmt.Sprintf("Dynamic fleet: %d sessions under link mutations (%s)",
			len(run.AgentIDs), doc.Name),
		Header: []string{"t (s)", "Link (Gbps)", "Jain before", "Jain dip", "Refair t (s)", "Refair (s)"},
	}

	// Fleet-wide Jain over a sliding window of per-session means.
	const window = 20.0
	jain := func(t0 float64) float64 {
		means := make([]float64, len(run.AgentIDs))
		for i, id := range run.AgentIDs {
			means[i] = tl.MeanThroughputGbps(id, t0, t0+window)
		}
		return stats.JainIndex(means)
	}

	horizon := doc.DurationSeconds
	for i, ev := range events {
		before := jain(math.Max(0, ev.At-window))
		// Dip: the minimum windowed Jain between this event and the
		// next (or the horizon), slid in half-window steps.
		end := horizon
		if i+1 < len(events) {
			end = events[i+1].At
		}
		dip := math.Inf(1)
		refair := -1.0
		for t := ev.At; t+window <= end; t += window / 2 {
			j := jain(t)
			if j < dip {
				dip = j
			}
			if refair < 0 && j >= 0.95 {
				refair = t
			}
		}
		if math.IsInf(dip, 1) {
			dip = jain(ev.At)
		}
		refairCell, deltaCell := "never", "—"
		if refair >= 0 {
			refairCell = fmt.Sprintf("%.0f", refair)
			deltaCell = fmt.Sprintf("%.0f", refair-ev.At)
		}
		r.AddRow(fmt.Sprintf("%.0f", ev.At), fmt.Sprintf("%.1f", ev.Capacity/1e9),
			fmt.Sprintf("%.3f", before), fmt.Sprintf("%.3f", dip), refairCell, deltaCell)
		r.AddNote("t=%.0fs link→%.1f Gbps: Jain %.3f → dip %.3f, refair(0.95) %s",
			ev.At, ev.Capacity/1e9, before, dip, refairCell)
	}

	// Equilibrium sanity over the final window. The capacity label sums
	// the shard bottlenecks (a single-shard run is just its one link).
	finalJ := jain(horizon - window)
	agg := 0.0
	for _, id := range run.AgentIDs {
		agg += tl.MeanThroughputGbps(id, horizon-window, horizon)
	}
	capacity := 0.0
	for _, sp := range run.Shards {
		capacity += sp.Config.LinkCapacity
	}
	r.AddNote("final window [%.0fs, %.0fs]: Jain %.3f, aggregate %.2f Gbps (link %.1f Gbps)",
		horizon-window, horizon, finalJ, agg, capacity/1e9)
	return r
}

// Extra returns experiments that are registered (resolvable by ID via
// ByID, so `reproduce fleet-flap` runs one) but deliberately outside
// All(): running the default suite stays byte-identical while dynamic
// and scale workloads remain one named argument away.
func Extra() []Runner {
	return []Runner{
		{"fleet-flap", "Dynamic fleet: capacity flap on the shared bottleneck", func(seed int64) (*Result, error) {
			doc := FleetFlapDoc()
			doc.Seed = seed
			return DynamicFleet(doc, 0)
		}},
	}
}
