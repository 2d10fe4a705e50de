package main

// metric describes one reported number. BENCHMARK.json at the repo
// root lists the same names, units, directions and bounds, and a test
// holds the two together.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Workload names. Later issues refer to them.
const (
	paperSuite  = "paper-suite"
	fleetSteady = "fleet-steady"
	fleetChurn  = "fleet-churn"
	serviceMix  = "service-mix"
)

var workloadNames = []string{paperSuite, fleetSteady, fleetChurn, serviceMix}

// endToEnd is the gated set: what a user of the three surfaces feels.
// Every run reports every one of them (see sectionsFor): a metric is
// measured on the section of the pass that owns it, at full size on the
// workload whose surface it is and on a fixed reference slice
// elsewhere. Bounds are shares of the parent's median; README.md
// records the spreads they were set against.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"pass_wall_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"session_s_per_s", "1/s", "higher", 0.25},
	{"equilibrium_jain", "ratio", "higher", 0.02},
	{"link_utilisation", "ratio", "higher", 0.01},
	{"requests_per_s", "1/s", "higher", 0.25},
	{"hit_p50_ms", "ms", "lower", 0.25},
	{"light_p50_ms", "ms", "lower", 0.25},
	{"heavy_p50_ms", "ms", "lower", 0.25},
}

// ungated is measured and printed like the rest but kept out of
// BENCHMARK.json. A p99 of sub-millisecond requests is a handful of
// scheduler and collector hiccups a pass: across ten seeds of identical
// code hit_p99_ms spread by 13–45 % and light_p99_ms by up to 33 %, past
// the widest bound the contract allows.
var ungated = []metric{
	{Name: "hit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "light_p99_ms", Unit: "ms", Better: "lower"},
}

// fleetMetrics and serviceMetrics name the metrics owned by the fleet
// and the service section.
var (
	fleetMetrics   = []string{"session_s_per_s", "equilibrium_jain", "link_utilisation"}
	serviceMetrics = []string{"requests_per_s", "hit_p50_ms", "hit_p99_ms", "light_p50_ms", "light_p99_ms", "heavy_p50_ms"}
)

// experimentIDs are the registered paper experiments whose wall time the
// traced suite pass reports one by one. The list is spelt out so the
// metric names stay put if the registry changes; a test says when the
// two drift apart.
var experimentIDs = []string{
	"table1", "fig1a", "fig1b", "fig2a", "fig2b", "fig4", "fig6a", "fig6b", "fig6c", "fig7",
	"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
	"abl-k", "abl-b", "abl-interval", "abl-window", "abl-warmup", "abl-bbr", "abl-search", "abl-noise", "abl-dynamics",
}

// perLayer is the traced set, ungated. Span metrics come from one
// traced pass of each section through the program's public seams;
// probe metrics from replaying a layer's public functions on
// workload-shaped state (probes.go). README.md says which end-to-end
// metric each should move, and on which workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	var ms []metric
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			ms = append(ms, metric{Name: n, Unit: unit, Better: better})
		}
	}
	for _, id := range experimentIDs {
		add("ms", "lower", "experiments."+id+".wall_ms")
	}
	for _, algo := range fleetAlgorithms {
		add("count", "lower", "core.decide."+algo+".calls")
		add("s", "lower", "core.decide."+algo+".busy_s")
	}
	add("us", "lower", "core.decide.bo.p99_us")
	add("s", "lower", "testbed.run.wall_s", "testbed.run.self_s", "testbed.record.busy_s")
	add("count", "lower", "testbed.record.calls")
	add("ratio", "higher", "testbed.shard.cpu_over_wall")
	for _, doc := range []string{"heavy", "fleet"} {
		add("us", "lower", "scenario.parse_us."+doc, "scenario.hash_us."+doc)
		add("ms", "lower", "scenario.build_ms."+doc)
	}
	add("ns", "lower", "netsim.allocate.steady_ns", "netsim.allocate.retune_ns", "netsim.allocate.mutated_ns")
	add("count", "lower", "netsim.allocate.allocs")
	add("ns", "lower", "testbed.engine.step_ns", "testbed.engine.runticks_ns_per_tick", "testbed.engine.small_step_ns")
	add("ns", "lower", "trace.append_ns", "trace.between_mean_ns")
	add("us", "lower", "bayesopt.next_us.n8", "bayesopt.next_us.n64", "bayesopt.fit_us", "bayesopt.predict_grid_us")
	add("ns", "lower", "linalg.chol.slide_ns", "linalg.solve3_ns")
	add("ns", "lower", "optimizer.next.hc_ns", "optimizer.next.gd_ns", "utility.evaluate_ns", "session.tick_ns")
	for _, class := range serviceClasses {
		add("us", "lower", "webservice.post_us.p50."+class, "webservice.follow_us.p50."+class)
	}
	add("ratio", "higher", "webservice.cache.hit_ratio", "webservice.coalesce.ratio")
	add("count", "lower", "webservice.simulations", "webservice.store.evictions", "webservice.sse.events_per_stream")
	add("us", "lower", "webservice.handler.create_hit_us", "webservice.handler.create_light_us", "webservice.handler.get_us")
	add("ratio", "lower", "trace_overhead_frac", "steal_frac")
	return ms
}
