package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// toy is every section at a size the race detector gets through in
// seconds.
var toy = sizes{
	suiteSeeds: 1, fleetSessions: 201, churnSessions: 3 * churnUnit, fleetDuration: 60,
	service: serviceSizes{Hit: 240, Light: 40, Heavy: 4, DupPairs: 2, HeavyAgents: 12, HeavyDuration: 120},
}

func toyPlan() plan {
	return plan{full: toy, ref: toy, minPasses: 1, maxPasses: 1, baselinePasses: 1, probeBatch: 200 * time.Microsecond}
}

// TestSmoke runs every workload end to end at toy size, untraced and
// traced, with every correctness check on: a broken seam in testbed,
// scenario or webservice fails here before it fails a benchmark run.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(w, 1, toyPlan(), trace, "")
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !rep.res.Correct || rep.res.Failed != 0 || rep.res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d failed %d problems %v unmeasured %v",
					w, trace, rep.res.Attempted, rep.res.Failed, rep.info.Problems, rep.info.Unmeasured)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rep.res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(rep.res.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := rep.res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in %q, want %q", w, trace, m.Name, v.Unit, m.Unit)
				}
			}
			if trace {
				checkLayers(t, w, rep)
			}
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(last) != 4 {
				t.Errorf("%s trace=%v: last line is not the four-key result object: %v", w, trace, err)
			}
		}
	}
}

// checkLayers holds a traced run to the mechanism/bypass facts the
// per-layer metrics exist to show.
func checkLayers(t *testing.T, w string, rep *report) {
	t.Helper()
	get := func(name string) float64 { return rep.res.Metrics[name].Value }
	if w == fleetChurn {
		if get("testbed.record.calls") <= 0 {
			t.Errorf("%s: the aggregate recorder saw no calls", w)
		}
	} else if get("testbed.record.calls") != 0 {
		t.Errorf("%s: %v recorder calls on a fleet that records through trace", w, get("testbed.record.calls"))
	}
	for _, algo := range fleetAlgorithms {
		if get("core.decide."+algo+".calls") <= 0 {
			t.Errorf("%s: no %s decisions counted", w, algo)
		}
	}
	light, heavy, pairs := toy.service.Light, toy.service.Heavy, toy.service.DupPairs
	if got := get("webservice.simulations"); got != float64(light+heavy+pairs) {
		t.Errorf("%s: %v simulations, want %d: the hit class must trigger none", w, got, light+heavy+pairs)
	}
	total := float64(toy.service.Hit + light + heavy + 2*pairs)
	if got, want := get("webservice.cache.hit_ratio"), float64(toy.service.Hit)/total; got < want {
		t.Errorf("%s: cache hit ratio %v, want at least %v", w, got, want)
	}
	for _, name := range []string{"netsim.allocate.steady_ns", "bayesopt.next_us.n8", "webservice.handler.get_us", "experiments.fig7.wall_ms", "scenario.build_ms.fleet"} {
		if get(name) <= 0 {
			t.Errorf("%s: %s = %v", w, name, get(name))
		}
	}
}

// The per-layer names spell the experiment ids out; say when the
// registry and the list part ways.
func TestExperimentIDsMatchRegistry(t *testing.T) {
	var ids []string
	for _, r := range experiments.All() {
		ids = append(ids, r.ID)
	}
	if !reflect.DeepEqual(ids, experimentIDs) {
		t.Errorf("registry %v\nbenchmark %v", ids, experimentIDs)
	}
}

// BENCHMARK.json and the tables in metrics.go describe one benchmark.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", bj.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", bj.EndToEnd, endToEnd)
	}
	byName := func(ms []metric) []metric {
		out := append([]metric(nil), ms...)
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		return out
	}
	if !reflect.DeepEqual(byName(bj.PerLayer), byName(perLayer)) {
		t.Errorf("per_layer differs:\n json %v\n code %v", byName(bj.PerLayer), byName(perLayer))
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" || len(bj.Command) == 0 {
		t.Errorf("paths %v command %v", bj.Paths, bj.Command)
	}
}
