// Command falconsim runs one transfer-optimization scenario on a
// simulated testbed and prints the timeline: per-agent throughput,
// concurrency, and loss at each decision epoch.
//
// Usage:
//
//	falconsim [-testbed NAME] [-algo gd|bo|hc|globus|harp|fixed:N]
//	          [-agents N] [-stagger SECONDS] [-duration SECONDS]
//	          [-seed N] [-chart]
//	          [-cpuprofile FILE] [-memprofile FILE]
//	falconsim -scenario FILE.json [-seed N] [-chart]
//	falconsim -validate FILE.json|DIR...
//
// Examples:
//
//	falconsim -testbed emulab -algo gd
//	falconsim -testbed hpclab -algo bo -agents 3 -stagger 120
//	falconsim -testbed emulab-1g -algo fixed:48 -duration 120
//	falconsim -scenario examples/scenarios/fleet-flap.json
//	falconsim -validate examples/scenarios
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/profiling"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/transfer"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "falconsim: "+format+"\n", args...)
	os.Exit(1)
}

// pickTestbed resolves a named environment through the scenario
// subsystem's preset table, so the CLI, the webservice, and scenario
// documents share one name space.
func pickTestbed(name string) (testbed.Config, bool) {
	return scenario.PresetConfig(name)
}

func makeController(algo string, maxN int, seed int64) (testbed.Controller, transfer.Setting, error) {
	initial := transfer.Setting{Concurrency: 2, Parallelism: 1, Pipelining: 1}
	switch {
	case algo == "gd" || algo == "bo" || algo == "hc":
		a, err := core.NewAgentByName(algo, maxN, seed)
		return a, initial, err
	case algo == "globus":
		g, err := baselines.NewGlobus(dataset.Main())
		if err != nil {
			return nil, initial, err
		}
		return g, g.Setting(), nil
	case algo == "harp":
		h, err := baselines.NewHARP(baselines.SyntheticHistory(1.2e9, 9.5e9, 16), maxN)
		if err != nil {
			return nil, initial, err
		}
		return h, h.Setting(), nil
	case strings.HasPrefix(algo, "fixed:"):
		n, err := strconv.Atoi(strings.TrimPrefix(algo, "fixed:"))
		if err != nil || n < 1 {
			return nil, initial, fmt.Errorf("bad fixed concurrency %q", algo)
		}
		s := transfer.Setting{Concurrency: n, Parallelism: 1, Pipelining: 1}
		return testbed.FixedController{S: s}, s, nil
	default:
		return nil, initial, fmt.Errorf("unknown algorithm %q", algo)
	}
}

// eventSink prints the typed session event stream as it happens.
func eventSink(e session.Event) {
	switch e.Kind {
	case session.Sample:
		fmt.Printf("event t=%7.2f %-8s %-9s %.3f Gbps loss=%.4f\n",
			e.Time, e.Session, e.Kind, e.Sample.Throughput/1e9, e.Sample.Loss)
	case session.Decision, session.Apply:
		fmt.Printf("event t=%7.2f %-8s %-9s %s\n", e.Time, e.Session, e.Kind, e.Setting)
	case session.Error:
		fmt.Printf("event t=%7.2f %-8s %-9s %v\n", e.Time, e.Session, e.Kind, e.Err)
	default:
		fmt.Printf("event t=%7.2f %-8s %-9s\n", e.Time, e.Session, e.Kind)
	}
}

// summarize prints the per-agent table, Jain index, and charts.
func summarize(tl *testbed.Timeline, ids []string, duration float64, chart bool) {
	fmt.Printf("%-10s %-18s %-14s\n", "agent", "mean Gbps (2nd half)", "mean cc")
	var shares []float64
	for _, id := range ids {
		tput := tl.MeanThroughputGbps(id, duration/2, duration)
		shares = append(shares, tput)
		cc := 0.0
		if s := tl.Concurrency.Lookup(id); s != nil {
			cc = s.MeanAfter(duration / 2)
		}
		fmt.Printf("%-10s %-18.3f %-14.1f\n", id, tput, cc)
	}
	if len(ids) > 1 {
		fmt.Printf("Jain fairness index: %.3f\n", stats.JainIndex(shares))
	}
	if chart {
		fmt.Printf("\nthroughput (Gbps):\n%s", tl.Throughput.ASCIIChart(72, 12))
		fmt.Printf("\nconcurrency:\n%s", tl.Concurrency.ASCIIChart(72, 12))
	}
}

// validateScenarios validates every scenario file in the given files
// or directories (non-recursive, *.json) and reports per-file status.
func validateScenarios(paths []string) int {
	if len(paths) == 0 {
		fail("-validate needs scenario files or directories")
	}
	var files []string
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			fail("%v", err)
		}
		if !info.IsDir() {
			files = append(files, p)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(p, "*.json"))
		if err != nil {
			fail("%v", err)
		}
		if len(matches) == 0 {
			fail("no scenario files in %s", p)
		}
		files = append(files, matches...)
	}
	bad := 0
	for _, f := range files {
		doc, err := scenario.ParseFile(f)
		if err == nil {
			// A valid document must also compile: controller names,
			// route existence, and cross-traffic rates are only checked
			// by Build.
			_, err = doc.Build()
		}
		if err != nil {
			bad++
			fmt.Printf("FAIL %s: %v\n", f, err)
			continue
		}
		fmt.Printf("ok   %s (%s: %d agents, %d mutations)\n", f, doc.Name, doc.Sessions(), len(doc.Mutations))
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// runScenarioFile executes a scenario document end to end.
func runScenarioFile(path string, seedOverride *int64, chart, events bool,
	cpuprofile, memprofile string) {
	doc, err := scenario.ParseFile(path)
	if err != nil {
		fail("%v", err)
	}
	if seedOverride != nil {
		doc.Seed = *seedOverride
	}
	run, err := doc.Build()
	if err != nil {
		fail("%v", err)
	}
	opt := scenario.ExecOptions{Logf: func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}}
	if events {
		opt.Events = eventSink
	}
	stopProfiles := startProfiles(cpuprofile, memprofile)
	tl, err := run.Execute(opt)
	stopProfiles()
	if err != nil {
		fail("%v", err)
	}
	// Horizons are counted over every shard's schedule, so a mutation
	// that reaches several shards counts once for each.
	horizons := 0
	for _, sp := range run.Shards {
		horizons += len(sp.Mutations)
	}
	fmt.Printf("\nscenario %s on %s, %d agent(s), %.0fs, %d mutation horizon(s)\n",
		doc.Name, run.Config.Name, len(run.AgentIDs), doc.DurationSeconds, horizons)
	summarize(tl, run.AgentIDs, doc.DurationSeconds, chart)
}

// startProfiles begins CPU profiling and returns a func that stops it
// and writes the heap profile; either path may be empty. Any profiling
// error is fatal.
func startProfiles(cpuprofile, memprofile string) func() {
	stop, err := profiling.Start(cpuprofile, memprofile)
	if err != nil {
		fail("%v", err)
	}
	return func() {
		if err := stop(); err != nil {
			fail("%v", err)
		}
	}
}

func main() {
	tbName := flag.String("testbed", "emulab", "testbed: "+strings.Join(scenario.Presets(), ", "))
	algo := flag.String("algo", "gd", "controller: gd, bo, hc, globus, harp, fixed:N")
	agents := flag.Int("agents", 1, "number of competing transfer tasks")
	stagger := flag.Float64("stagger", 120, "seconds between agent joins")
	duration := flag.Float64("duration", 300, "simulated seconds")
	seed := flag.Int64("seed", 1, "random seed")
	maxN := flag.Int("maxcc", 64, "search-space upper bound for concurrency")
	chart := flag.Bool("chart", true, "print ASCII charts")
	events := flag.Bool("events", false, "print the typed session event stream as it happens")
	scenarioPath := flag.String("scenario", "", "run a declarative scenario document (JSON) instead of the flag-built run")
	validate := flag.Bool("validate", false, "validate the scenario files/directories given as arguments and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the simulation run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file after the run")
	flag.Parse()

	if *validate {
		os.Exit(validateScenarios(flag.Args()))
	}
	if *scenarioPath != "" {
		// -seed overrides the document's seed only when set explicitly.
		var seedOverride *int64
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedOverride = seed
			}
		})
		runScenarioFile(*scenarioPath, seedOverride, *chart, *events, *cpuprofile, *memprofile)
		return
	}
	cfg, ok := pickTestbed(*tbName)
	if !ok {
		fail("unknown testbed %q", *tbName)
	}
	if *agents < 1 {
		fail("need at least one agent")
	}

	eng, err := testbed.NewEngine(cfg, *seed)
	if err != nil {
		fail("%v", err)
	}
	sched := testbed.NewScheduler(eng, 1)
	sched.SetLogf(func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	if *events {
		sched.SetEventSink(eventSink)
	}
	ids := make([]string, 0, *agents)
	for i := 0; i < *agents; i++ {
		ctrl, initial, err := makeController(*algo, *maxN, *seed+int64(i))
		if err != nil {
			fail("%v", err)
		}
		id := fmt.Sprintf("agent%d", i+1)
		ids = append(ids, id)
		task, err := transfer.NewTask(id, dataset.Uniform(id, 20000, int64(dataset.GB)), initial)
		if err != nil {
			fail("%v", err)
		}
		if err := sched.Add(testbed.Participant{
			Task: task, Controller: ctrl, JoinAt: float64(i) * *stagger,
		}); err != nil {
			fail("%v", err)
		}
	}

	stopProfiles := startProfiles(*cpuprofile, *memprofile)
	tl := sched.Run(*duration, 0.25)
	stopProfiles()

	fmt.Printf("\n%s on %s, %d agent(s), %.0fs\n", *algo, cfg.Name, *agents, *duration)
	summarize(tl, ids, *duration, *chart)
}
