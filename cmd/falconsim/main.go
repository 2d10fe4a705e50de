// Command falconsim runs one transfer-optimization scenario on a
// simulated testbed and prints the timeline: per-agent throughput,
// concurrency, and loss at each decision epoch.
//
// Usage:
//
//	falconsim [-testbed NAME] [-algo gd|bo|hc|globus|harp|fixed:N]
//	          [-agents N] [-stagger SECONDS] [-duration SECONDS]
//	          [-seed N] [-maxcc N] [-chart] [-events]
//	          [-cpuprofile FILE] [-memprofile FILE]
//	falconsim -scenario FILE.json [-seed N] [-chart] [-events]
//	          [-cpuprofile FILE] [-memprofile FILE]
//	falconsim -validate FILE.json|DIR...
//
// Examples:
//
//	falconsim -testbed emulab -algo gd
//	falconsim -testbed hpclab -algo bo -agents 3 -stagger 120
//	falconsim -testbed emulab-1g -algo fixed:48 -duration 120
//	falconsim -scenario examples/scenarios/fleet-flap.json
//	falconsim -validate examples/scenarios
//
// The flags lower onto a scenario document (scenario.Flat, the
// lowering behind the web service's flat request too): agent i is
// "agent<i+1>", seeded seed+i, and joins at i·stagger. Both roads then
// build and execute the document alike and print the same report under
// their own header line. A document describes its own run, so
// -scenario refuses the flags that build one (-testbed, -algo, -agents,
// -stagger, -duration, -maxcc) rather than ignoring them; -seed
// overrides the document's seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/profiling"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/testbed"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// flagRoadOnly names the flags that build a run from flags; a scenario
// document describes its own run, so -scenario refuses them.
var flagRoadOnly = []string{"testbed", "algo", "agents", "stagger", "duration", "maxcc"}

// run holds main's body: it parses args, prints the report on stdout
// and errors on stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("falconsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tbName := fs.String("testbed", "emulab", "testbed: "+strings.Join(scenario.Presets(), ", "))
	algo := fs.String("algo", "gd", "controller: gd, bo, hc, globus, harp, fixed:N")
	agents := fs.Int("agents", 1, "number of competing transfer tasks")
	stagger := fs.Float64("stagger", 120, "seconds between agent joins")
	duration := fs.Float64("duration", 300, "simulated seconds")
	seed := fs.Int64("seed", 1, "random seed")
	maxN := fs.Int("maxcc", 64, "search-space upper bound for concurrency")
	chart := fs.Bool("chart", true, "print ASCII charts")
	events := fs.Bool("events", false, "print the typed session event stream as it happens")
	scenarioPath := fs.String("scenario", "", "run a declarative scenario document (JSON) instead of the flag-built run")
	validate := fs.Bool("validate", false, "validate the scenario files/directories given as arguments and exit")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the simulation run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file after the run")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "falconsim: %v\n", err)
		return 1
	}
	if *validate {
		return validateScenarios(fs.Args(), stdout, stderr)
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var doc *scenario.Document
	var err error
	if *scenarioPath != "" {
		var refused []string
		for _, name := range flagRoadOnly {
			if set[name] {
				refused = append(refused, "-"+name)
			}
		}
		if len(refused) > 0 {
			return fail(fmt.Errorf("%s cannot be used with -scenario: the document describes the run", strings.Join(refused, ", ")))
		}
		// A document reads seed 0 as its default, 1: refused as the
		// flag road refuses it, rather than run as seed 1.
		if set["seed"] && *seed == 0 {
			return fail(fmt.Errorf("-seed 0 reads as the document's default seed, 1; pick another"))
		}
		if doc, err = scenario.ParseFile(*scenarioPath); err != nil {
			return fail(err)
		}
		if set["seed"] {
			doc.Seed = *seed
		}
	} else if doc, err = scenario.Flat(*tbName, *algo, *agents, *stagger, *duration, *seed, *maxN); err != nil {
		return fail(err)
	}
	r, err := doc.Build()
	if err != nil {
		return fail(err)
	}
	opt := scenario.ExecOptions{Logf: func(format string, args ...any) {
		fmt.Fprintf(stdout, format+"\n", args...)
	}}
	if *events {
		opt.Events = eventSink(stdout)
	}
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return fail(err)
	}
	tl, err := r.Execute(opt)
	if perr := stopProfiles(); perr != nil {
		return fail(perr)
	}
	if err != nil {
		return fail(err)
	}
	if *scenarioPath == "" {
		fmt.Fprintf(stdout, "\n%s on %s, %d agent(s), %.0fs\n", *algo, r.Config.Name, len(r.AgentIDs), doc.DurationSeconds)
	} else {
		// Horizons are counted over every shard's schedule, so a
		// mutation that reaches several shards counts once for each.
		horizons := 0
		for _, sp := range r.Shards {
			horizons += len(sp.Mutations)
		}
		fmt.Fprintf(stdout, "\nscenario %s on %s, %d agent(s), %.0fs, %d mutation horizon(s)\n",
			doc.Name, r.Config.Name, len(r.AgentIDs), doc.DurationSeconds, horizons)
	}
	summarize(stdout, tl, r.AgentIDs, doc.DurationSeconds, *chart)
	return 0
}

// eventSink prints the typed session event stream as it happens.
func eventSink(w io.Writer) session.Sink {
	return func(e session.Event) {
		switch e.Kind {
		case session.Sample:
			fmt.Fprintf(w, "event t=%7.2f %-8s %-9s %.3f Gbps loss=%.4f\n",
				e.Time, e.Session, e.Kind, e.Sample.Throughput/1e9, e.Sample.Loss)
		case session.Decision, session.Apply:
			fmt.Fprintf(w, "event t=%7.2f %-8s %-9s %s\n", e.Time, e.Session, e.Kind, e.Setting)
		case session.Error:
			fmt.Fprintf(w, "event t=%7.2f %-8s %-9s %v\n", e.Time, e.Session, e.Kind, e.Err)
		default:
			fmt.Fprintf(w, "event t=%7.2f %-8s %-9s\n", e.Time, e.Session, e.Kind)
		}
	}
}

// summarize prints the per-agent table, Jain index, and charts.
func summarize(w io.Writer, tl *testbed.Timeline, ids []string, duration float64, chart bool) {
	fmt.Fprintf(w, "%-10s %-18s %-14s\n", "agent", "mean Gbps (2nd half)", "mean cc")
	var shares []float64
	for _, id := range ids {
		tput := tl.MeanThroughputGbps(id, duration/2, duration)
		shares = append(shares, tput)
		cc := 0.0
		if s := tl.Concurrency.Lookup(id); s != nil {
			cc = s.MeanAfter(duration / 2)
		}
		fmt.Fprintf(w, "%-10s %-18.3f %-14.1f\n", id, tput, cc)
	}
	if len(ids) > 1 {
		fmt.Fprintf(w, "Jain fairness index: %.3f\n", stats.JainIndex(shares))
	}
	if chart {
		fmt.Fprintf(w, "\nthroughput (Gbps):\n%s", tl.Throughput.ASCIIChart(72, 12))
		fmt.Fprintf(w, "\nconcurrency:\n%s", tl.Concurrency.ASCIIChart(72, 12))
	}
}

// validateScenarios validates every scenario file in the given files
// or directories (non-recursive, *.json), reports per-file status, and
// returns the exit status.
func validateScenarios(paths []string, stdout, stderr io.Writer) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "falconsim: "+format+"\n", args...)
		return 1
	}
	if len(paths) == 0 {
		return fail("-validate needs scenario files or directories")
	}
	var files []string
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return fail("%v", err)
		}
		if !info.IsDir() {
			files = append(files, p)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(p, "*.json"))
		if err != nil {
			return fail("%v", err)
		}
		if len(matches) == 0 {
			return fail("no scenario files in %s", p)
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
			fmt.Fprintf(stdout, "FAIL %s: %v\n", f, err)
			continue
		}
		fmt.Fprintf(stdout, "ok   %s (%s: %d agents, %d mutations)\n", f, doc.Name, doc.Sessions(), len(doc.Mutations))
	}
	if bad > 0 {
		return 1
	}
	return 0
}
