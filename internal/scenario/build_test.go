package scenario

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/session"
	"repro/internal/testbed"
	"repro/internal/transfer"
)

// TestBuildRoster: expansion order, join staggering, and per-agent
// seeding feed through to the participants.
func TestBuildRoster(t *testing.T) {
	d := &Document{Preset: "fleet", Agents: []AgentSpec{
		{ID: "hc", Count: 3, Algorithm: "hc", JoinStagger: 3, MaxConcurrency: 8},
		{ID: "solo", Algorithm: "fixed:5", JoinAt: 10, LeaveAt: 200},
	}}
	run, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"hc1", "hc2", "hc3", "solo"}; !reflect.DeepEqual(run.AgentIDs, want) {
		t.Fatalf("AgentIDs = %v, want %v", run.AgentIDs, want)
	}
	if len(run.Participants) != 4 {
		t.Fatalf("%d participants", len(run.Participants))
	}
	for i, wantJoin := range []float64{0, 3, 6, 10} {
		if got := run.Participants[i].JoinAt; got != wantJoin {
			t.Errorf("participant %d JoinAt = %v, want %v", i, got, wantJoin)
		}
	}
	if run.Participants[3].LeaveAt != 200 {
		t.Errorf("solo LeaveAt = %v", run.Participants[3].LeaveAt)
	}
	if run.Participants[3].Task.Setting().Concurrency != 5 {
		t.Errorf("fixed:5 initial concurrency = %d", run.Participants[3].Task.Setting().Concurrency)
	}
	for i, p := range run.Participants {
		if p.Task.ID() != run.AgentIDs[i] {
			t.Errorf("participant %d task %q ≠ agent ID %q", i, p.Task.ID(), run.AgentIDs[i])
		}
	}
}

// TestBuildConstructsFleetAgents: every hc/gd/bo agent a document
// builds is a fleet-weight agent — it decides exactly like
// core.NewFleetAgent(algo, maxN, doc.Seed+n) for roster position n,
// BO random stream included.
func TestBuildConstructsFleetAgents(t *testing.T) {
	d := &Document{Preset: "fleet", Seed: 5, Agents: []AgentSpec{
		{ID: "hc", Count: 2, Algorithm: "hc", MaxConcurrency: 8},
		{ID: "gd", Count: 2, Algorithm: "gd", MaxConcurrency: 16},
		{ID: "bo", Count: 3, Algorithm: "bo", MaxConcurrency: 8},
	}}
	run, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, spec := range d.Agents {
		for j := 0; j < spec.Count; j++ {
			built, ok := run.Participants[n].Controller.(*core.Agent)
			if !ok {
				t.Fatalf("%s: controller is %T, want *core.Agent", run.AgentIDs[n], run.Participants[n].Controller)
			}
			want, err := core.NewFleetAgent(spec.Algorithm, spec.MaxConcurrency, d.Seed+int64(n))
			if err != nil {
				t.Fatal(err)
			}
			cur := 2
			for k := 0; k < 40; k++ {
				s := transfer.Sample{
					Setting:    transfer.Setting{Concurrency: cur, Parallelism: 1, Pipelining: 1},
					Duration:   3,
					Throughput: 1e9 * math.Min(float64(cur), 5) * (1 + 0.05*math.Sin(float64(k))),
					Loss:       0.002 * math.Max(0, float64(cur-5)),
				}
				got, exp := built.Decide(s), want.Decide(s)
				if got != exp {
					t.Fatalf("%s decision %d: built agent chose %+v, NewFleetAgent %+v", run.AgentIDs[n], k, got, exp)
				}
				cur = got.Concurrency
			}
			n++
		}
	}
}

// TestSessionSecondsMatchesRoster: Document.SessionSeconds is Σ over
// the built participants of (leave-or-horizon − join), the benchmark's
// session-seconds, on a roster with staggered joins, leaves and late
// joiners.
func TestSessionSecondsMatchesRoster(t *testing.T) {
	d := goldenFleetDoc()
	run, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, p := range run.Participants {
		end := d.DurationSeconds
		if p.LeaveAt > 0 && p.LeaveAt < end {
			end = p.LeaveAt
		}
		if end > p.JoinAt {
			want += end - p.JoinAt
		}
	}
	if got := d.SessionSeconds(); got != want {
		t.Fatalf("SessionSeconds = %v, want %v", got, want)
	}
	if full := float64(len(run.Participants)) * d.DurationSeconds; want >= full {
		t.Fatalf("roster covers %v session-seconds, not below sessions × horizon %v: joins and leaves are not exercised", want, full)
	}
}

// TestBaselinesStartAtOwnSetting: a globus or harp spec without an
// initial setting joins at the setting its controller picks, not at the
// {2,1,1} default of the searchers; an explicit initial still wins.
func TestBaselinesStartAtOwnSetting(t *testing.T) {
	globus, err := baselines.NewGlobus(dataset.Main())
	if err != nil {
		t.Fatal(err)
	}
	harp, err := baselines.NewHARP(baselines.SyntheticHistory(1.2e9, 9.5e9, 16), 64)
	if err != nil {
		t.Fatal(err)
	}
	d := &Document{Preset: "hpclab", DurationSeconds: 30, Agents: []AgentSpec{
		{ID: "globus", Algorithm: "globus"},
		{ID: "harp", Algorithm: "harp"},
		{ID: "pinned", Algorithm: "harp", Initial: &SettingSpec{Concurrency: 3, Parallelism: 2, Pipelining: 1}},
	}}
	run, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	joins := map[string]transfer.Setting{}
	if _, err := run.Execute(ExecOptions{Events: func(e session.Event) {
		if e.Kind == session.Join {
			joins[e.Session] = e.Setting
		}
	}}); err != nil {
		t.Fatal(err)
	}
	want := map[string]transfer.Setting{
		"globus": globus.Setting(),
		"harp":   harp.Setting(),
		"pinned": {Concurrency: 3, Parallelism: 2, Pipelining: 1},
	}
	if !reflect.DeepEqual(joins, want) {
		t.Fatalf("joined at %v, want %v", joins, want)
	}
}

// TestFlatRefusesDefaults: a flat run states every value, so the zeros a
// document would read as defaults are refused.
func TestFlatRefusesDefaults(t *testing.T) {
	if _, err := Flat("emulab", "gd", 2, 120, 300, 1, 64); err != nil {
		t.Fatal(err)
	}
	refused := func(_ *Document, err error) bool { return err != nil }
	for name, ok := range map[string]bool{
		"algorithm":       refused(Flat("emulab", "", 2, 120, 300, 1, 64)),
		"agents":          refused(Flat("emulab", "gd", 0, 120, 300, 1, 64)),
		"duration":        refused(Flat("emulab", "gd", 2, 120, 0, 1, 64)),
		"seed":            refused(Flat("emulab", "gd", 2, 120, 300, 0, 64)),
		"max concurrency": refused(Flat("emulab", "gd", 2, 120, 300, 1, 0)),
	} {
		if !ok {
			t.Errorf("zero %s accepted", name)
		}
	}
}

// TestCompileCrossTrafficWave: a wave lowers to an absolute capacity
// drop at its start and a restore at its end.
func TestCompileCrossTrafficWave(t *testing.T) {
	d := &Document{Preset: "fleet", DurationSeconds: 600, Agents: []AgentSpec{{Count: 2}},
		Mutations: []MutationSpec{{At: 300, Kind: KindCrossTraffic, Rate: 7.5e9, DurationSeconds: 120}}}
	run, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := []testbed.Mutation{
		{At: 300, Kind: testbed.MutLinkCapacity, Capacity: 2.5e9},
		{At: 420, Kind: testbed.MutLinkCapacity, Capacity: 10e9},
	}
	if got := run.Shards[0].Mutations; !reflect.DeepEqual(got, want) {
		t.Fatalf("compiled = %+v, want %+v", got, want)
	}

	// A wave claiming the whole link is a build error, not a zero cap.
	d2 := &Document{Preset: "fleet", DurationSeconds: 600, Agents: []AgentSpec{{}},
		Mutations: []MutationSpec{{At: 300, Kind: KindCrossTraffic, Rate: 10e9, DurationSeconds: 60}}}
	if _, err := d2.Build(); err == nil {
		t.Fatal("wave rate ≥ capacity built without error")
	}
}

// TestCompileTopologyMutations: link changes re-derive the routed
// path's bottleneck; off-route links track state but emit nothing.
func TestCompileTopologyMutations(t *testing.T) {
	d := &Document{
		Preset:          "fleet",
		DurationSeconds: 600,
		Topology: &TopologySpec{Dumbbell: &DumbbellSpec{
			Hosts: 2, AccessCap: 40e9, BottleneckCap: 10e9, BottleneckLatency: 0.015}},
		Agents: []AgentSpec{{Count: 2}},
		Mutations: []MutationSpec{
			// Off the src0→dst0 route: tracked, no horizon emitted.
			{At: 50, Kind: KindLinkCapacity, Link: "access-src1", Capacity: 1e9},
			// On-route access link, still above the 10 G bottleneck: no
			// bottleneck change, no horizon.
			{At: 100, Kind: KindLinkCapacity, Link: "access-src0", Capacity: 20e9},
			// Access link dips below the middle hop: bottleneck moves.
			{At: 200, Kind: KindLinkCapacity, Link: "access-src0", Capacity: 4e9},
			// Wave on the middle hop while the access link binds at 4G:
			// 10-6=4 G does not change the 4 G bottleneck → only the
			// restore... neither end changes it.
			{At: 300, Kind: KindCrossTraffic, Link: "bottleneck", Rate: 6e9, DurationSeconds: 50},
			// Deeper wave: 10-9=1 G binds.
			{At: 400, Kind: KindCrossTraffic, Link: "bottleneck", Rate: 9e9, DurationSeconds: 50},
		},
	}
	run, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	// RTT derived from the route: 2 × (0.0005 + 0.015 + 0.0005).
	if want := 0.032; math.Abs(run.Config.RTT-want) > 1e-12 {
		t.Fatalf("routed RTT = %v, want %v", run.Config.RTT, want)
	}
	if run.Config.LinkCapacity != 10e9 {
		t.Fatalf("routed link capacity = %v, want 10e9", run.Config.LinkCapacity)
	}
	want := []testbed.Mutation{
		{At: 200, Kind: testbed.MutLinkCapacity, Capacity: 4e9},
		{At: 400, Kind: testbed.MutLinkCapacity, Capacity: 1e9},
		{At: 450, Kind: testbed.MutLinkCapacity, Capacity: 4e9},
	}
	if got := run.Shards[0].Mutations; !reflect.DeepEqual(got, want) {
		t.Fatalf("compiled = %+v\nwant %+v", got, want)
	}
}

// TestCompileGrowDataset: grow mutations compile to (count, size)
// batches in schedule order, which extend the task's dataset.
func TestCompileGrowDataset(t *testing.T) {
	d := &Document{Preset: "emulab", Agents: []AgentSpec{{ID: "a"}},
		Mutations: []MutationSpec{
			{At: 10, Kind: KindGrowDataset, Agent: "a", Grow: &GrowSpec{Count: 2, Size: 5}},
			{At: 20, Kind: KindGrowDataset, Agent: "a", Grow: &GrowSpec{Count: 1, Size: 7}},
		}}
	run, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	muts := run.Shards[0].Mutations
	if len(muts) != 2 {
		t.Fatalf("%d compiled mutations", len(muts))
	}
	task := run.Participants[0].Task
	baseFiles, baseBytes := task.RemainingFiles(), task.BytesRemaining()
	for i, want := range []struct {
		count int
		size  int64
	}{{2, 5}, {1, 7}} {
		m := muts[i]
		if m.Kind != testbed.MutGrowDataset || m.Task != "a" || m.Count != want.count || m.Size != want.size {
			t.Fatalf("mutation %d = %+v, want a grow of a by %d × %d", i, m, want.count, want.size)
		}
		if err := task.Extend(m.Count, m.Size); err != nil {
			t.Fatal(err)
		}
	}
	if task.RemainingFiles() != baseFiles+3 || task.BytesRemaining() != baseBytes+2*5+7 {
		t.Fatalf("grown task: %d files of %d bytes, want %d of %d",
			task.RemainingFiles(), task.BytesRemaining(), baseFiles+3, baseBytes+2*5+7)
	}
}

// TestExecuteSingleUse: tasks are stateful, so a Run refuses a second
// execution.
func TestExecuteSingleUse(t *testing.T) {
	d := &Document{Preset: "emulab", DurationSeconds: 10, Agents: []AgentSpec{{Algorithm: "fixed:2"}}}
	run, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Execute(ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := run.Execute(ExecOptions{}); err == nil {
		t.Fatal("second Execute succeeded")
	}
	// Building the document again yields a fresh run.
	run2, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run2.Execute(ExecOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioExecutionDeterministic: two runs built from the same
// document produce identical timelines, and mutation horizons do not
// disturb that.
func TestScenarioExecutionDeterministic(t *testing.T) {
	doc := func() *Document {
		return &Document{Preset: "fleet", DurationSeconds: 120, Agents: []AgentSpec{
			{Count: 3, Algorithm: "gd", JoinStagger: 2, MaxConcurrency: 8}},
			Mutations: []MutationSpec{{At: 60, Kind: KindCrossTraffic, Rate: 7.5e9, DurationSeconds: 30}}}
	}
	exec := func() *testbed.Timeline {
		run, err := doc().Build()
		if err != nil {
			t.Fatal(err)
		}
		tl, err := run.Execute(ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return tl
	}
	if !reflect.DeepEqual(exec(), exec()) {
		t.Fatal("same document, different timelines")
	}
}
