package scenario

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/testbed"
)

// minimal returns the smallest valid document.
func minimal() *Document {
	return &Document{Preset: "emulab", Agents: []AgentSpec{{}}}
}

func TestNormaliseDefaults(t *testing.T) {
	d := minimal()
	if err := d.Normalise(); err != nil {
		t.Fatal(err)
	}
	if d.Version != Version || d.Seed != 1 || d.DurationSeconds != 300 ||
		d.TickSeconds != 0.25 || d.RecordSeconds != 1 || d.Name != "emulab" {
		t.Fatalf("defaults not applied: %+v", d)
	}
	a := d.Agents[0]
	if a.Count != 1 || a.Algorithm != "gd" || a.MaxConcurrency != 64 {
		t.Fatalf("agent defaults not applied: %+v", a)
	}
	if a.Initial == nil || a.Initial.Concurrency != 2 || a.Initial.Parallelism != 1 || a.Initial.Pipelining != 1 {
		t.Fatalf("initial setting default = %+v", a.Initial)
	}
	if a.Dataset == nil || a.Dataset.Count != 20000 || a.Dataset.Size != 1e9 {
		t.Fatalf("dataset default = %+v", a.Dataset)
	}
	// fixed:N starts at N.
	d2 := &Document{Preset: "emulab", Agents: []AgentSpec{{Algorithm: "fixed:7"}}}
	if err := d2.Normalise(); err != nil {
		t.Fatal(err)
	}
	if d2.Agents[0].Initial.Concurrency != 7 {
		t.Fatalf("fixed:7 initial concurrency = %d", d2.Agents[0].Initial.Concurrency)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"bad json", `{`, "scenario:"},
		{"unknown field", `{"preset":"emulab","agents":[{}],"bogus":1}`, "bogus"},
		{"trailing data", `{"preset":"emulab","agents":[{}]} {}`, "trailing"},
		{"bad version", `{"version":9,"preset":"emulab","agents":[{}]}`, "version"},
		{"no agents", `{"preset":"emulab"}`, "no agents"},
		{"no environment", `{"agents":[{}]}`, "need a preset or an environment"},
		{"unknown preset", `{"preset":"ornl","agents":[{}]}`, "unknown preset"},
		{"negative duration", `{"preset":"emulab","duration_seconds":-5,"agents":[{}]}`, "duration"},
		{"negative join", `{"preset":"emulab","agents":[{"join_at":-1}]}`, "join_at"},
		{"leave before join", `{"preset":"emulab","agents":[{"join_at":50,"leave_at":10}]}`, "leave_at"},
		{"unknown algorithm", `{"preset":"emulab","agents":[{"algorithm":"rl"}]}`, "algorithm"},
		{"duplicate ids", `{"preset":"emulab","agents":[{"id":"a"},{"id":"a"}]}`, "duplicate agent"},
		{"collision with expansion", `{"preset":"emulab","agents":[{},{"id":"agent1"}]}`, "duplicate agent"},
		{"mutation past horizon", `{"preset":"emulab","duration_seconds":100,"agents":[{}],
			"mutations":[{"at":100,"kind":"rtt","rtt":0.05}]}`, "past"},
		{"negative mutation time", `{"preset":"emulab","agents":[{}],
			"mutations":[{"at":-1,"kind":"rtt","rtt":0.05}]}`, "non-negative"},
		{"unknown mutation kind", `{"preset":"emulab","agents":[{}],
			"mutations":[{"at":1,"kind":"teleport"}]}`, "unknown kind"},
		{"grow unknown agent", `{"preset":"emulab","agents":[{"id":"a"}],
			"mutations":[{"at":1,"kind":"grow-dataset","agent":"b","grow":{"count":1,"size":1}}]}`, "unknown agent"},
		{"link without topology", `{"preset":"emulab","agents":[{}],
			"mutations":[{"at":1,"kind":"link-capacity","link":"l0","capacity":1e9}]}`, "no topology"},
		{"unknown link", `{"preset":"fleet","agents":[{}],
			"topology":{"dumbbell":{"hosts":1,"access_cap":1e9,"bottleneck_cap":1e9}},
			"mutations":[{"at":1,"kind":"link-capacity","link":"ghost","capacity":1e9}]}`, "unknown link"},
		{"overlapping point mutations", `{"preset":"emulab","agents":[{}],
			"mutations":[{"at":10,"kind":"rtt","rtt":0.05},{"at":10,"kind":"rtt","rtt":0.06}]}`, "overlap"},
		{"wave overlaps point", `{"preset":"fleet","agents":[{}],
			"topology":{"dumbbell":{"hosts":1,"access_cap":40e9,"bottleneck_cap":10e9}},
			"mutations":[{"at":10,"kind":"cross-traffic","link":"bottleneck","rate":1e9,"duration_seconds":50},
			             {"at":30,"kind":"link-capacity","link":"bottleneck","capacity":5e9}]}`, "overlap"},
		{"dumbbell and explicit graph", `{"preset":"fleet","agents":[{}],
			"topology":{"dumbbell":{"hosts":1,"access_cap":1e9,"bottleneck_cap":1e9},"nodes":["a"]}}`, "mutually exclusive"},
		{"graph without endpoints", `{"preset":"fleet","agents":[{}],
			"topology":{"nodes":["a","b"],"links":[{"id":"l","a":"a","b":"b","capacity":1e9,"latency":0.001}]}}`, "src and dst"},
		{"link to unknown node", `{"preset":"fleet","agents":[{}],
			"topology":{"nodes":["a","b"],"src":"a","dst":"b",
			"links":[{"id":"l","a":"a","b":"ghost","capacity":1e9,"latency":0.001}]}}`, "unknown node"},
		{"preset and environment", `{"preset":"emulab","agents":[{}],
			"environment":{"name":"x","src_store":{"name":"s","per_proc_cap":1,"aggregate_cap":1},
			"dst_store":{"name":"s","per_proc_cap":1,"aggregate_cap":1},
			"src_host":{"name":"h","nic_cap":1,"cpu_cap":1},"dst_host":{"name":"h","nic_cap":1,"cpu_cap":1},
			"link_capacity":1,"rtt":0.01,"sample_interval":1,"noise_std_dev":0}}`, "mutually exclusive"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.doc))
		if err == nil {
			t.Errorf("%s: Parse accepted invalid document", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestAgentIDsExpansion(t *testing.T) {
	d := &Document{Preset: "fleet", Agents: []AgentSpec{
		{Count: 2},           // unnamed → global numbering
		{ID: "solo"},         // named single
		{ID: "gd", Count: 3}, // named group → suffixed
		{Count: 1},           // numbering continues across specs
	}}
	want := []string{"agent1", "agent2", "solo", "gd1", "gd2", "gd3", "agent7"}
	if got := d.AgentIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("AgentIDs = %v, want %v", got, want)
	}
}

// TestHashSeparatesMutationSchedules is the cache-key regression: two
// documents identical except for their mutation schedule must hash
// differently, and the hash must be stable across parse→canonical
// round-trips.
func TestHashSeparatesMutationSchedules(t *testing.T) {
	base := `{"preset":"fleet","duration_seconds":600,"agents":[{"count":4}]}`
	flap := `{"preset":"fleet","duration_seconds":600,"agents":[{"count":4}],
		"mutations":[{"at":300,"kind":"cross-traffic","rate":7.5e9,"duration_seconds":120}]}`
	flap2 := `{"preset":"fleet","duration_seconds":600,"agents":[{"count":4}],
		"mutations":[{"at":300,"kind":"cross-traffic","rate":7.5e9,"duration_seconds":240}]}`
	h := func(s string) string {
		d, err := Parse([]byte(s))
		if err != nil {
			t.Fatal(err)
		}
		sum, err := d.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	hBase, hFlap, hFlap2 := h(base), h(flap), h(flap2)
	if hBase == hFlap {
		t.Fatal("document with a mutation schedule hashes like its mutation-free twin")
	}
	if hFlap == hFlap2 {
		t.Fatal("documents differing only in wave duration hash alike")
	}

	// Canonical is a fixed point: re-parsing the canonical encoding
	// yields the same hash, and explicit defaults don't change it.
	d, err := Parse([]byte(flap))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := d.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if h(string(canon)) != hFlap {
		t.Fatal("canonical encoding is not a hash fixed point")
	}
	explicit := `{"version":1,"name":"fleet","preset":"fleet","seed":1,"duration_seconds":600,
		"tick_seconds":0.25,"record_seconds":1,"agents":[{"count":4}],
		"mutations":[{"at":300,"kind":"cross-traffic","rate":7.5e9,"duration_seconds":120}]}`
	if h(explicit) != hFlap {
		t.Fatal("explicit defaults changed the hash vs implied defaults")
	}
}

// TestPresetConfigsMatchConstructors pins the preset table to the
// legacy testbed constructors byte for byte — the delegation that keeps
// reproduce output identical now that every consumer resolves
// environments through the scenario subsystem.
func TestPresetConfigsMatchConstructors(t *testing.T) {
	want := map[string]testbed.Config{
		"emulab":    testbed.Emulab(10e6),
		"emulab-1g": testbed.EmulabGigabit(20.83e6),
		"xsede":     testbed.XSEDE(),
		"hpclab":    testbed.HPCLab(),
		"campus":    testbed.CampusCluster(),
		"wan":       testbed.StampedeCometWAN(),
	}
	for name, w := range want {
		got, ok := PresetConfig(name)
		if !ok {
			t.Errorf("preset %q missing", name)
			continue
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("preset %q diverged from its constructor:\n got %+v\nwant %+v", name, got, w)
		}
	}
	if _, ok := PresetConfig("fleet"); !ok {
		t.Error("preset fleet missing")
	}
	if _, ok := PresetConfig("nope"); ok {
		t.Error("unknown preset resolved")
	}
	if got := Presets(); len(got) != 7 {
		t.Errorf("Presets() = %v", got)
	}
}

// TestExampleEnvironmentsMatchConstructors is the golden-file test for
// the checked-in Table 1 scenarios: the explicit environment documents
// in examples/scenarios/ must compile to reflect.DeepEqual copies of
// the legacy constructors, so scenario-built environments and the
// hard-coded ones are interchangeable.
func TestExampleEnvironmentsMatchConstructors(t *testing.T) {
	cases := []struct {
		file string
		want testbed.Config
	}{
		{"emulab.json", testbed.Emulab(10e6)},
		{"xsede.json", testbed.XSEDE()},
		{"hpclab.json", testbed.HPCLab()},
		{"campus.json", testbed.CampusCluster()},
	}
	for _, c := range cases {
		d, err := ParseFile(filepath.Join("..", "..", "examples", "scenarios", c.file))
		if err != nil {
			t.Errorf("%s: %v", c.file, err)
			continue
		}
		if d.Environment == nil {
			t.Errorf("%s: no explicit environment", c.file)
			continue
		}
		if got := d.Environment.Config(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s compiles to a different config than the constructor:\n got %+v\nwant %+v", c.file, got, c.want)
		}
		// Round-trip: EnvFromConfig of the constructor equals the spec.
		if spec := EnvFromConfig(c.want); !reflect.DeepEqual(spec.Config(), c.want) {
			t.Errorf("%s: EnvFromConfig round-trip diverged", c.file)
		}
		run, err := d.Build()
		if err != nil {
			t.Errorf("%s: Build: %v", c.file, err)
			continue
		}
		if !reflect.DeepEqual(run.Config, c.want) {
			t.Errorf("%s: built config diverged from constructor", c.file)
		}
	}
}

// TestExampleScenariosBuild: every checked-in scenario parses and
// compiles (the same gate make verify runs via falconsim -validate).
func TestExampleScenariosBuild(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 8 {
		t.Fatalf("only %d example scenarios found: %v", len(files), files)
	}
	for _, f := range files {
		d, err := ParseFile(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if _, err := d.Build(); err != nil {
			t.Errorf("%s: Build: %v", f, err)
		}
	}
}

// EnvFromConfig converts a testbed.Config into its spec.
func EnvFromConfig(c testbed.Config) EnvSpec {
	return EnvSpec{
		Name: c.Name,
		SrcStore: StoreSpec{Name: c.SrcStore.Name, PerProcCap: c.SrcStore.PerProcCap,
			AggregateCap: c.SrcStore.AggregateCap, ContentionKnee: c.SrcStore.ContentionKnee,
			ContentionRate: c.SrcStore.ContentionRate, MaxDegradation: c.SrcStore.MaxDegradation},
		DstStore: StoreSpec{Name: c.DstStore.Name, PerProcCap: c.DstStore.PerProcCap,
			AggregateCap: c.DstStore.AggregateCap, ContentionKnee: c.DstStore.ContentionKnee,
			ContentionRate: c.DstStore.ContentionRate, MaxDegradation: c.DstStore.MaxDegradation},
		SrcHost: HostSpec{Name: c.SrcHost.Name, NICCap: c.SrcHost.NICCap, CPUCap: c.SrcHost.CPUCap,
			ConnOverhead: c.SrcHost.ConnOverhead, MaxDegradation: c.SrcHost.MaxDegradation},
		DstHost: HostSpec{Name: c.DstHost.Name, NICCap: c.DstHost.NICCap, CPUCap: c.DstHost.CPUCap,
			ConnOverhead: c.DstHost.ConnOverhead, MaxDegradation: c.DstHost.MaxDegradation},
		LinkCapacity:   c.LinkCapacity,
		RTT:            c.RTT,
		SampleInterval: c.SampleInterval,
		NoiseStdDev:    c.NoiseStdDev,
		RampTau:        c.RampTau,
		Bottleneck:     c.Bottleneck,
		Congestion:     c.Congestion,
	}
}
