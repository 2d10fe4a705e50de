package scenario

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/testbed"
	"repro/internal/transfer"
)

// presetNames lists the built-in environments in canonical order.
var presetNames = []string{"emulab", "emulab-1g", "xsede", "hpclab", "campus", "wan", "fleet"}

// Presets returns the built-in environment names.
func Presets() []string { return append([]string(nil), presetNames...) }

// PresetConfig resolves a named environment: the paper's Table 1
// testbeds plus the WAN path and the fleet-contention bottleneck. It
// is the single lookup behind cmd/falconsim, cmd/fleet, the
// webservice, and experiments, so the name space is identical
// everywhere; the golden tests pin the checked-in scenario files in
// examples/scenarios/ to these configs.
func PresetConfig(name string) (testbed.Config, bool) {
	switch name {
	case "emulab":
		return testbed.Emulab(10e6), true
	case "emulab-1g":
		return testbed.EmulabGigabit(20.83e6), true
	case "xsede":
		return testbed.XSEDE(), true
	case "hpclab":
		return testbed.HPCLab(), true
	case "campus":
		return testbed.CampusCluster(), true
	case "wan":
		return testbed.StampedeCometWAN(), true
	case "fleet":
		return fleetConfig(), true
	}
	return testbed.Config{}, false
}

// fleetConfig is the shared-bottleneck fleet environment: a 10 Gbps
// WAN-ish path whose storage and hosts are provisioned far above the
// link, so every session contends for the same network resource.
func fleetConfig() testbed.Config {
	return testbed.Config{
		Name:           "fleet",
		SrcStore:       StoreSpec{Name: "fleet-src", PerProcCap: 400e6, AggregateCap: 400e9}.Store(),
		DstStore:       StoreSpec{Name: "fleet-dst", PerProcCap: 400e6, AggregateCap: 400e9}.Store(),
		SrcHost:        HostSpec{Name: "fleet-src", NICCap: 100e9, CPUCap: 150e9, ConnOverhead: 0.003}.Host(),
		DstHost:        HostSpec{Name: "fleet-dst", NICCap: 100e9, CPUCap: 150e9, ConnOverhead: 0.003}.Host(),
		LinkCapacity:   10e9,
		RTT:            0.030,
		SampleInterval: 3,
		NoiseStdDev:    0.01,
		Bottleneck:     "Network",
	}
}

// Run is a compiled scenario: the environment config, the expanded
// participant roster (tasks already constructed), and each shard's
// mutation schedule as engine horizons. Tasks are stateful, so a Run
// drives at most one execution; Build again for another.
type Run struct {
	// Doc is the normalised source document.
	Doc *Document
	// Config is the compiled environment.
	Config testbed.Config
	// AgentIDs is the expanded roster in join-spec order.
	AgentIDs []string
	// Participants couple each agent's task, controller, and schedule.
	Participants []testbed.Participant
	// Shards partitions the roster into independent contention
	// domains, in first-appearance order. Always at least one; for
	// documents without pinned links it is exactly one shard holding
	// everyone, and Execute behaves as the unsharded run.
	Shards []ShardPlan

	used bool
	// counts and decideWidth are the executed ShardSet's (see Counts).
	counts      testbed.Counts
	decideWidth int
}

// Build compiles the document: resolve the environment (preset or
// explicit, with topology-derived link capacity and RTT), expand the
// roster into participants with constructed controllers and tasks, and
// compile the mutation schedule — cross-traffic waves become absolute
// capacity set/restore pairs, topology link changes become path-
// bottleneck changes. The document is normalised and validated first,
// so Build returns errors rather than panicking on bad input.
func (d *Document) Build() (*Run, error) {
	roster, err := d.normalise()
	if err != nil {
		return nil, err
	}
	cfg, err := d.buildConfig()
	if err != nil {
		return nil, err
	}
	r := &Run{Doc: d, Config: cfg, AgentIDs: roster, Participants: make([]testbed.Participant, 0, len(roster))}
	n := 0
	for i := range d.Agents {
		a := &d.Agents[i]
		// A labelled dataset is one value every agent of the spec reads,
		// so a fleet's tasks share it (and its cache lines).
		var shared *dataset.Dataset
		if a.Dataset.Label != "" {
			shared = dataset.Uniform(a.Dataset.Label, a.Dataset.Count, a.Dataset.Size)
		}
		for j := 0; j < a.Count; j++ {
			id := r.AgentIDs[n]
			seed := d.Seed + int64(n)
			n++
			ctrl, err := buildController(a.Algorithm, a.MaxConcurrency, seed)
			if err != nil {
				return nil, fmt.Errorf("scenario: agent %q: %w", id, err)
			}
			ds := shared
			if ds == nil {
				ds = dataset.Uniform(id, a.Dataset.Count, a.Dataset.Size)
			}
			var initial transfer.Setting
			if ini := a.Initial; ini != nil {
				initial = transfer.Setting{Concurrency: ini.Concurrency, Parallelism: ini.Parallelism, Pipelining: ini.Pipelining}
			} else {
				// Normalise leaves only globus and harp without one:
				// they start at the setting their heuristic picks.
				initial = ctrl.(interface{ Setting() transfer.Setting }).Setting()
			}
			task, err := transfer.NewTask(id, ds, initial)
			if err != nil {
				return nil, fmt.Errorf("scenario: agent %q: %w", id, err)
			}
			r.Participants = append(r.Participants, testbed.Participant{
				Task:           task,
				Controller:     ctrl,
				JoinAt:         a.joinAt(j),
				LeaveAt:        a.LeaveAt,
				SampleInterval: a.SampleInterval,
			})
		}
	}
	if err := d.partition(r, d.baseConfig()); err != nil {
		return nil, err
	}
	// Per-shard schedules: one replay, lowered onto each shard's own
	// route, growths delivered to the owning shard.
	routes := make([][]string, len(r.Shards))
	for k := range r.Shards {
		routes[k] = r.Shards[k].Links
	}
	// Only grow-dataset mutations ask which shard runs an agent, so the
	// index is built on the first ask, and never for one shard.
	var shardOfAgent map[string]int
	shardOf := func(id string) int {
		if len(r.Shards) == 1 {
			return 0
		}
		if shardOfAgent == nil {
			shardOfAgent = make(map[string]int, len(r.AgentIDs))
			for k := range r.Shards {
				for _, idx := range r.Shards[k].Participants {
					shardOfAgent[r.AgentIDs[idx]] = k
				}
			}
		}
		return shardOfAgent[id]
	}
	perShard, err := d.compileMutations(cfg, routes, shardOf)
	if err != nil {
		return nil, err
	}
	for k := range r.Shards {
		r.Shards[k].Mutations = perShard[k]
	}
	return r, nil
}

// joinAt is when the spec's j-th expanded agent joins.
func (a *AgentSpec) joinAt(j int) float64 { return a.JoinAt + float64(j)*a.JoinStagger }

// SessionSeconds is the simulated session time a run of the normalised
// document covers: Σ over the expanded roster of (leave-or-horizon −
// join), the numerator of a fleet's session-seconds per wall second.
func (d *Document) SessionSeconds() float64 {
	total := 0.0
	for i := range d.Agents {
		a := &d.Agents[i]
		end := d.DurationSeconds
		if a.LeaveAt > 0 && a.LeaveAt < end {
			end = a.LeaveAt
		}
		for j := 0; j < a.Count; j++ {
			if join := a.joinAt(j); join < end {
				total += end - join
			}
		}
	}
	return total
}

// baseConfig resolves the preset or explicit environment, before any
// route-derived capacity/RTT is applied.
func (d *Document) baseConfig() testbed.Config {
	if d.Preset != "" {
		cfg, _ := PresetConfig(d.Preset)
		return cfg
	}
	return d.Environment.Config()
}

// buildConfig resolves preset/environment and applies the topology's
// routed link capacity and RTT.
func (d *Document) buildConfig() (testbed.Config, error) {
	cfg := d.baseConfig()
	if d.Topology != nil {
		_, bottleneck, rtt, err := d.routeState()
		if err != nil {
			return cfg, err
		}
		cfg.LinkCapacity = bottleneck
		cfg.RTT = rtt
	}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("scenario: %w", err)
	}
	return cfg, nil
}

// buildTopology constructs the netsim graph and route endpoints.
// Validation has already checked every reference, so the netsim
// construction panics cannot fire.
func (d *Document) buildTopology() (t *netsim.Topology, src, dst string) {
	ts := d.Topology
	if ts.Dumbbell != nil {
		db := ts.Dumbbell
		t = netsim.Dumbbell(db.Hosts, db.AccessCap, db.BottleneckCap, db.BottleneckLatency)
		src, dst = ts.Src, ts.Dst
		if src == "" {
			src = "src0"
		}
		if dst == "" {
			dst = "dst0"
		}
		return t, src, dst
	}
	t = netsim.NewTopology()
	for _, n := range ts.Nodes {
		t.AddNode(n)
	}
	for _, l := range ts.Links {
		t.AddLink(l.ID, l.A, l.B, l.Capacity, l.Latency)
	}
	return t, ts.Src, ts.Dst
}

// routeState routes the topology and returns the transfer path's link
// IDs in order, the path bottleneck capacity, and the path RTT.
func (d *Document) routeState() (links []string, bottleneck, rtt float64, err error) {
	t, src, dst := d.buildTopology()
	links, rtt, err = t.Route(src, dst)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("scenario: topology: %w", err)
	}
	if len(links) == 0 {
		return nil, 0, 0, fmt.Errorf("scenario: topology: empty route from %q to %q", src, dst)
	}
	capOf := make(map[string]float64)
	for _, r := range t.Resources() {
		capOf[r.ID] = r.Capacity
	}
	bottleneck = math.Inf(1)
	for _, id := range links {
		if capOf[id] < bottleneck {
			bottleneck = capOf[id]
		}
	}
	return links, bottleneck, rtt, nil
}

// linkCapacities returns the initial capacity of every topology link,
// or the single flat link when the document has no topology (keyed "").
func (d *Document) linkCapacities(cfg testbed.Config) map[string]float64 {
	caps := make(map[string]float64)
	if d.Topology == nil {
		caps[""] = cfg.LinkCapacity
		return caps
	}
	t, _, _ := d.buildTopology()
	for _, r := range t.Resources() {
		caps[r.ID] = r.Capacity
	}
	return caps
}

// compileMutations lowers the declarative schedule onto a set of
// routes: every event is replayed in time order over one shared
// per-link capacity state, and whenever a route's bottleneck value
// changes a testbed.MutLinkCapacity horizon is emitted to that route's
// schedule with the new absolute capacity. Cross-traffic waves are a
// claim/restore pair over the shared state; changes to links off a
// route track state but emit nothing there (they cannot affect that
// path). RTT and store mutations lower onto every schedule (they
// describe the shared endpoints); grow-dataset mutations lower onto
// the schedule of the shard shardOf names for the target agent.
func (d *Document) compileMutations(cfg testbed.Config, routes [][]string, shardOf func(agent string) int) ([][]testbed.Mutation, error) {
	out := make([][]testbed.Mutation, len(routes))
	if len(d.Mutations) == 0 {
		return out, nil
	}
	caps := d.linkCapacities(cfg)
	minOf := func(k int) float64 {
		b := math.Inf(1)
		for _, id := range routes[k] {
			if caps[id] < b {
				b = caps[id]
			}
		}
		return b
	}
	cur := make([]float64, len(routes))
	for k := range routes {
		cur[k] = minOf(k)
	}

	// One event per point mutation, two per cross-traffic wave.
	type event struct {
		at   float64
		idx  int // source mutation index (tie-break)
		end  bool
		spec *MutationSpec
	}
	events := make([]event, 0, len(d.Mutations))
	for i := range d.Mutations {
		m := &d.Mutations[i]
		events = append(events, event{at: m.At, idx: i, spec: m})
		if m.Kind == KindCrossTraffic {
			events = append(events, event{at: m.At + m.DurationSeconds, idx: i, end: true, spec: m})
		}
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		return events[a].idx < events[b].idx
	})

	waveSaved := make(map[int]float64, len(events))
	emitLink := func(at float64) {
		for k := range routes {
			if b := minOf(k); b != cur[k] {
				cur[k] = b
				out[k] = append(out[k], testbed.Mutation{At: at, Kind: testbed.MutLinkCapacity, Capacity: b})
			}
		}
	}
	emitAll := func(m testbed.Mutation) {
		for k := range out {
			out[k] = append(out[k], m)
		}
	}
	for _, ev := range events {
		m := ev.spec
		switch m.Kind {
		case KindLinkCapacity:
			caps[m.Link] = m.Capacity
			emitLink(ev.at)
		case KindCrossTraffic:
			if ev.end {
				caps[m.Link] = waveSaved[ev.idx]
				emitLink(ev.at)
				break
			}
			have := caps[m.Link]
			if m.Rate >= have {
				return nil, fmt.Errorf("scenario: mutation %d cross-traffic rate %g ≥ link capacity %g at t=%g",
					ev.idx, m.Rate, have, ev.at)
			}
			waveSaved[ev.idx] = have
			caps[m.Link] = have - m.Rate
			emitLink(ev.at)
		case KindRTT:
			emitAll(testbed.Mutation{At: ev.at, Kind: testbed.MutRTT, RTT: m.RTT})
		case KindSrcStore:
			emitAll(testbed.Mutation{At: ev.at, Kind: testbed.MutSrcStore, Capacity: m.Capacity, PerProc: m.PerProc})
		case KindDstStore:
			emitAll(testbed.Mutation{At: ev.at, Kind: testbed.MutDstStore, Capacity: m.Capacity, PerProc: m.PerProc})
		case KindGrowDataset:
			k := shardOf(m.Agent)
			out[k] = append(out[k], testbed.Mutation{At: ev.at, Kind: testbed.MutGrowDataset, Task: m.Agent, Count: m.Grow.Count, Size: m.Grow.Size})
		}
	}
	return out, nil
}

// buildController constructs the agent's decision maker; the name
// space is cmd/falconsim's -algo flag. Falcon agents are fleet-weight
// (core.NewFleetAgent): a document may hold a million of them.
func buildController(algo string, maxN int, seed int64) (testbed.Controller, error) {
	switch {
	case algo == "gd" || algo == "bo" || algo == "hc":
		return core.NewFleetAgent(algo, maxN, seed)
	case algo == "globus":
		return baselines.NewGlobus(dataset.Main())
	case algo == "harp":
		return baselines.NewHARP(baselines.SyntheticHistory(1.2e9, 9.5e9, 16), maxN)
	case strings.HasPrefix(algo, "fixed:"):
		n, err := strconv.Atoi(strings.TrimPrefix(algo, "fixed:"))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad fixed concurrency %q", algo)
		}
		return testbed.FixedController{S: transfer.Setting{Concurrency: n, Parallelism: 1, Pipelining: 1}}, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q", algo)
}

// ExecOptions hook observers into an execution.
type ExecOptions struct {
	// Logf receives progress lines (joins, leaves, completions).
	Logf func(format string, args ...any)
	// Events receives the typed session event stream. Single-shard
	// runs deliver events live; multi-shard runs deliver them after
	// the run in merged (time, shard) order.
	Events session.Sink
	// Workers is the run's worker budget (testbed.ShardSet.SetWorkers):
	// ≤1 serial, except 0, the parallel harness default. Output never
	// depends on it.
	Workers int
}

// ShardSpecs converts the compiled shard plans into testbed shard
// specs, resolving participant indices. Participants are stateful, so
// the specs drive at most one ShardSet run.
func (r *Run) ShardSpecs() []testbed.ShardSpec {
	specs := make([]testbed.ShardSpec, len(r.Shards))
	for k := range r.Shards {
		sp := &r.Shards[k]
		parts := make([]testbed.Participant, len(sp.Participants))
		for i, idx := range sp.Participants {
			parts[i] = r.Participants[idx]
		}
		specs[k] = testbed.ShardSpec{
			Key:       sp.Key,
			Config:    sp.Config,
			Seed:      sp.Seed,
			Mutations: sp.Mutations,
			Parts:     parts,
		}
	}
	return specs
}

// Execute runs the scenario end to end — one engine and session loop
// per shard, mutation horizons scheduled per shard — and returns the
// merged timeline. Single-shard plans (every document without pinned
// links) run exactly as the unsharded scheduler did, with live event
// delivery. A Run's tasks accumulate state, so Execute refuses a
// second call; Build the document again instead.
func (r *Run) Execute(opt ExecOptions) (*testbed.Timeline, error) {
	if r.used {
		return nil, fmt.Errorf("scenario: run %q already executed; Build again", r.Doc.Name)
	}
	r.used = true
	ss, err := testbed.NewShardSet(r.ShardSpecs(), r.Doc.RecordSeconds)
	if err != nil {
		return nil, err
	}
	if opt.Logf != nil {
		ss.SetLogf(opt.Logf)
	}
	if opt.Events != nil {
		ss.SetEventSink(opt.Events)
	}
	ss.SetWorkers(opt.Workers)
	tl, err := ss.Run(r.Doc.DurationSeconds, r.Doc.TickSeconds)
	r.counts, r.decideWidth = ss.Counts(), ss.DecideWidth()
	return tl, err
}

// Counts reports how Execute ran: its work counts summed over the
// shards (testbed.ShardSet.Counts) and the width each shard decided
// on (testbed.ShardSet.DecideWidth). Both are zero before Execute.
func (r *Run) Counts() (testbed.Counts, int) { return r.counts, r.decideWidth }
