package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/testbed"
)

// multiLinkDoc is a two-switch topology with four parallel 10 Gbps
// links, each pinned by one group of agents — four independent
// contention domains behind wide access links.
func multiLinkDoc() *Document {
	return &Document{
		Preset:          "fleet",
		Seed:            5,
		DurationSeconds: 60,
		Topology: &TopologySpec{
			Nodes: []string{"src", "sw1", "sw2", "dst"},
			Src:   "src",
			Dst:   "dst",
			Links: []LinkSpec{
				{ID: "access-src", A: "src", B: "sw1", Capacity: 100e9, Latency: 0.001},
				{ID: "lnk0", A: "sw1", B: "sw2", Capacity: 10e9, Latency: 0.005},
				{ID: "lnk1", A: "sw1", B: "sw2", Capacity: 10e9, Latency: 0.005},
				{ID: "lnk2", A: "sw1", B: "sw2", Capacity: 10e9, Latency: 0.005},
				{ID: "lnk3", A: "sw1", B: "sw2", Capacity: 10e9, Latency: 0.005},
				{ID: "access-dst", A: "sw2", B: "dst", Capacity: 100e9, Latency: 0.001},
			},
		},
		Agents: []AgentSpec{
			{ID: "a", Count: 3, Link: "lnk0", JoinStagger: 1, Dataset: &DatasetSpec{Label: "shared"}},
			{ID: "b", Count: 3, Link: "lnk1", JoinStagger: 1, Dataset: &DatasetSpec{Label: "shared"}},
			{ID: "c", Count: 3, Link: "lnk2", JoinStagger: 1, Dataset: &DatasetSpec{Label: "shared"}},
			{ID: "d", Count: 3, Link: "lnk3", JoinStagger: 1, Dataset: &DatasetSpec{Label: "shared"}},
		},
	}
}

// TestPartitionByPinnedLink: four pinned links produce four shards in
// first-appearance order, each with its own route, bottleneck, config,
// seed, and participant block.
func TestPartitionByPinnedLink(t *testing.T) {
	run, err := multiLinkDoc().Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Shards) != 4 {
		t.Fatalf("got %d shards, want 4: %+v", len(run.Shards), run.Shards)
	}
	for k, sp := range run.Shards {
		wantKey := "access-src>lnk" + string(rune('0'+k)) + ">access-dst"
		if sp.Key != wantKey {
			t.Errorf("shard %d key = %q, want %q", k, sp.Key, wantKey)
		}
		if want := "lnk" + string(rune('0'+k)); sp.Bottleneck != want {
			t.Errorf("shard %d bottleneck = %q, want %q", k, sp.Bottleneck, want)
		}
		if sp.Config.LinkCapacity != 10e9 {
			t.Errorf("shard %d capacity = %v, want 10e9", k, sp.Config.LinkCapacity)
		}
		if sp.Seed != 5+int64(k) {
			t.Errorf("shard %d seed = %d, want %d", k, sp.Seed, 5+int64(k))
		}
		if len(sp.Participants) != 3 {
			t.Errorf("shard %d has %d participants, want 3", k, len(sp.Participants))
		}
	}
	// Participant indices must tile the roster exactly.
	seen := map[int]bool{}
	for _, sp := range run.Shards {
		for _, idx := range sp.Participants {
			if seen[idx] {
				t.Fatalf("participant %d assigned twice", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != len(run.Participants) {
		t.Fatalf("%d participants assigned, roster has %d", len(seen), len(run.Participants))
	}
}

// TestPartitionDefaultRouteSingleShard: documents without pinned links
// — with or without a topology — compile to exactly one shard that
// matches the legacy Config/Mutations, so sharded execution is the
// unsharded run.
func TestPartitionDefaultRouteSingleShard(t *testing.T) {
	d := multiLinkDoc()
	for i := range d.Agents {
		d.Agents[i].Link = ""
	}
	run, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Shards) != 1 {
		t.Fatalf("got %d shards, want 1", len(run.Shards))
	}
	sp := run.Shards[0]
	if !reflect.DeepEqual(sp.Config, run.Config) {
		t.Error("single shard config differs from legacy Run.Config")
	}
	if sp.Seed != d.Seed {
		t.Errorf("single shard seed = %d, want document seed %d", sp.Seed, d.Seed)
	}
	if len(sp.Participants) != len(run.Participants) {
		t.Errorf("single shard holds %d of %d participants", len(sp.Participants), len(run.Participants))
	}

	flat := FleetFlapLikeDoc()
	run2, err := flat.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(run2.Shards) != 1 || run2.Shards[0].Key != "" {
		t.Fatalf("topology-free doc: got %+v, want one shard with empty key", run2.Shards)
	}
	want := []testbed.Mutation{
		{At: 30, Kind: testbed.MutLinkCapacity, Capacity: 5e9},
		{At: 40, Kind: testbed.MutLinkCapacity, Capacity: 10e9},
	}
	if got := run2.Shards[0].Mutations; !reflect.DeepEqual(got, want) {
		t.Errorf("topology-free single shard mutations = %+v, want %+v", got, want)
	}
}

// FleetFlapLikeDoc is a small topology-free document with a mutation,
// for the single-shard equivalence check.
func FleetFlapLikeDoc() *Document {
	return &Document{
		Preset:          "fleet",
		Seed:            2,
		DurationSeconds: 60,
		Agents:          []AgentSpec{{Count: 4, JoinStagger: 1}},
		Mutations: []MutationSpec{
			{At: 30, Kind: KindCrossTraffic, Rate: 5e9, DurationSeconds: 10},
		},
	}
}

// TestAgentLinkValidation pins satellite requirement: an agent
// referencing an undefined link fails with a field-qualified error
// naming the agent, and pinning a link without a topology is rejected.
func TestAgentLinkValidation(t *testing.T) {
	d := multiLinkDoc()
	d.Agents[2].Link = "lnk9"
	_, err := d.Build()
	if err == nil {
		t.Fatal("undefined pinned link accepted")
	}
	for _, want := range []string{`agents[2]`, `(id "c")`, `"lnk9"`, "not defined in the topology"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}

	flat := FleetFlapLikeDoc()
	flat.Agents[0].Link = "lnk0"
	_, err = flat.Build()
	if err == nil {
		t.Fatal("pinned link without topology accepted")
	}
	if !strings.Contains(err.Error(), "agents[0]") || !strings.Contains(err.Error(), "no topology") {
		t.Errorf("error %q is not field-qualified", err)
	}
}

// TestPartitionRejectsSharedBottleneck: when one shard's bottleneck
// link lies on another shard's route, the partition is unsound (real
// cross-shard contention) and Build must refuse.
func TestPartitionRejectsSharedBottleneck(t *testing.T) {
	d := &Document{
		Preset:          "fleet",
		DurationSeconds: 60,
		Topology: &TopologySpec{
			Nodes: []string{"src", "sw1", "sw2", "dst"},
			Src:   "src",
			Dst:   "dst",
			Links: []LinkSpec{
				{ID: "access-src", A: "src", B: "sw1", Capacity: 100e9, Latency: 0.001},
				{ID: "lnk0", A: "sw1", B: "sw2", Capacity: 10e9, Latency: 0.005},
				{ID: "lnk1", A: "sw1", B: "sw2", Capacity: 8e9, Latency: 0.005},
				// "wide" is misnamed on purpose: at 9 Gbps it is the
				// bottleneck of the lnk0 route (10 > 9) while sitting on
				// the lnk1 route too (whose bottleneck is lnk1 at 8).
				{ID: "wide", A: "sw2", B: "dst", Capacity: 9e9, Latency: 0.001},
			},
		},
		Agents: []AgentSpec{
			{ID: "a", Link: "lnk0"},
			{ID: "b", Link: "lnk1"},
		},
	}
	_, err := d.Build()
	if err == nil {
		t.Fatal("shared bottleneck accepted")
	}
	if !strings.Contains(err.Error(), "share bottleneck link") || !strings.Contains(err.Error(), `"wide"`) {
		t.Errorf("unexpected error %q", err)
	}
}

// TestPerShardMutationLowering: link mutations reach only the shards
// whose route they touch, RTT reaches every shard, grow-dataset
// reaches the owning shard.
func TestPerShardMutationLowering(t *testing.T) {
	d := multiLinkDoc()
	d.Mutations = []MutationSpec{
		{At: 10, Kind: KindLinkCapacity, Link: "lnk1", Capacity: 4e9},
		{At: 20, Kind: KindRTT, RTT: 0.05},
		{At: 30, Kind: KindGrowDataset, Agent: "c2", Grow: &GrowSpec{Count: 2, Size: 1000}},
	}
	run, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	kinds := func(k int) []testbed.MutationKind {
		var out []testbed.MutationKind
		for _, m := range run.Shards[k].Mutations {
			out = append(out, m.Kind)
		}
		return out
	}
	want := [][]testbed.MutationKind{
		{testbed.MutRTT},
		{testbed.MutLinkCapacity, testbed.MutRTT},
		{testbed.MutRTT, testbed.MutGrowDataset},
		{testbed.MutRTT},
	}
	for k := range run.Shards {
		if !reflect.DeepEqual(kinds(k), want[k]) {
			t.Errorf("shard %d mutations = %v, want %v", k, kinds(k), want[k])
		}
	}
	if got := run.Shards[1].Mutations[0].Capacity; got != 4e9 {
		t.Errorf("shard 1 link mutation capacity = %v, want 4e9", got)
	}
}

// TestExecuteShardedWorkerInvariant: executing a pinned-link document
// serially and with a wide worker pool produces identical timelines.
func TestExecuteShardedWorkerInvariant(t *testing.T) {
	exec := func(workers int) *testbed.Timeline {
		run, err := multiLinkDoc().Build()
		if err != nil {
			t.Fatal(err)
		}
		tl, err := run.Execute(ExecOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return tl
	}
	serial := exec(1)
	if len(serial.Throughput.Series) == 0 {
		t.Fatal("sharded execution recorded nothing")
	}
	if wide := exec(4); !reflect.DeepEqual(wide, serial) {
		t.Error("workers=4 timeline differs from serial execution")
	}
}
