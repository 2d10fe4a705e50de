// Command fleet runs the fleet-scale contention workload: hundreds to
// tens of thousands of concurrent Falcon sessions (a hill-climbing /
// gradient-descent / Bayesian-optimization mix) joining one shared
// 10 Gbps bottleneck, each optimizing its own concurrency. It reports
// the time for the fleet to reach a Jain fairness index of 0.9, the
// equilibrium Jain index, and aggregate throughput, plus wall time,
// simulation rate (session-seconds of fleet simulated per wall second:
// Σ over sessions of leave-or-horizon − join) and peak memory on
// stderr so stdout stays byte-deterministic.
//
// Usage:
//
//	fleet [-n N] [-duration S] [-stagger S] [-maxn N] [-seed N] [-algos hc,gd,bo]
//	      [-links K] [-shards W] [-maxheap BYTES] [-json]
//	      [-cpuprofile FILE] [-memprofile FILE]
//	fleet -scenario FILE.json [-seed N] [-shards W] [-maxheap BYTES]
//	      [-cpuprofile FILE] [-memprofile FILE]
//
// With -links K > 1 the fleet spreads over K independent bottleneck
// links (session i routes over link i mod K); each link's sessions run
// as their own shard and -shards bounds how many shards step
// concurrently; where shards are fewer than -shards, each shard decides
// its due sessions that many times wider instead (the decide width).
// On both roads stderr prints the simulation's cpu/wall beside the
// decide width and how many loop heads fanned their decisions out over
// it. -json replaces the report with a one-line summary (Jain,
// aggregate Gbps, wall seconds, session-seconds/sec, cpu/wall, decide
// width, fan-outs, isolated decisions, peak heap).
//
// The flags lower onto a scenario document (experiments.FleetDoc) with
// one agent per session, and the run streams every session's
// throughput into constant-space window aggregates rather than keeping
// per-session timelines. -maxheap, when positive, exits with status 1
// if the post-run peak heap exceeds the budget (the CI memory smoke),
// on either road. On both roads stderr times the simulation and the
// report apart, and the session-seconds/sec rate is the simulation's
// alone.
//
// With -scenario, the flag-built fleet is replaced by a declarative
// scenario document (see internal/scenario) and the run reports
// time-to-refairness around every compiled link-capacity horizon via
// experiments.DynamicFleet. The document describes the fleet, so the
// flags that build one (-n, -duration, -stagger, -maxn, -algos, -links,
// -json) are refused beside it rather than ignored; a noise-free fleet
// is a document whose "env" sets "noise_std_dev": 0.
//
// The run is deterministic for a given flag set: the same seed always
// produces byte-identical output, at any -shards.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// flagRoadOnly names the flags that build a fleet from flags; a
// scenario document describes its own fleet, so -scenario refuses them.
var flagRoadOnly = []string{"n", "duration", "stagger", "maxn", "algos", "links", "json"}

// run holds main's body so profile-flushing defers execute before the
// process exits with a status code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 500, "number of concurrent sessions")
	duration := fs.Float64("duration", 600, "simulated horizon in seconds")
	stagger := fs.Float64("stagger", 0.5, "join spacing in seconds (session i joins at i*stagger)")
	maxn := fs.Int("maxn", 8, "concurrency search-domain bound per agent")
	seed := fs.Int64("seed", 1, "base seed (session i's agent is seeded seed+i)")
	algos := fs.String("algos", "hc,gd,bo", "comma-separated algorithm mix cycled across sessions")
	links := fs.Int("links", 1, "number of independent bottleneck links; session i routes over link i mod links, each link runs as its own shard")
	shards := fs.Int("shards", 0, "worker budget: max shards stepped concurrently, and with fewer shards than workers the width each decides on (0 = harness default, 1 = serial); never affects output")
	maxheap := fs.Uint64("maxheap", 0, "exit 1 if post-run peak heap (runtime HeapSys) exceeds this many bytes (0 = no budget)")
	jsonOut := fs.Bool("json", false, "emit a one-line machine-readable JSON summary instead of the report")
	scenarioPath := fs.String("scenario", "", "run a declarative scenario document (JSON) through the dynamic-fleet report instead of the flag-built fleet")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(stderr, "fleet: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(stderr, "fleet: %v\n", err)
		}
	}()

	if *scenarioPath != "" {
		var refused []string
		for _, name := range flagRoadOnly {
			if set[name] {
				refused = append(refused, "-"+name)
			}
		}
		if len(refused) > 0 {
			fmt.Fprintf(stderr, "fleet: %s cannot be used with -scenario: the document describes the fleet\n", strings.Join(refused, ", "))
			return 1
		}
		// A document reads seed 0 as its default, 1: refused as the
		// flag road refuses it, rather than run as seed 1.
		if set["seed"] && *seed == 0 {
			fmt.Fprintln(stderr, "fleet: -seed 0 reads as the document's default seed, 1; pick another")
			return 1
		}
		doc, err := scenario.ParseFile(*scenarioPath)
		if err != nil {
			fmt.Fprintf(stderr, "fleet: %v\n", err)
			return 1
		}
		// -seed overrides the document's seed only when set explicitly.
		if set["seed"] {
			doc.Seed = *seed
		}
		sessions := doc.Sessions()
		start, cpu0 := time.Now(), profiling.CPUSeconds()
		dr, err := experiments.ExecuteDynamicFleet(doc, *shards)
		wall := time.Since(start)
		cpuOverWall := (profiling.CPUSeconds() - cpu0) / wall.Seconds()
		if err != nil {
			fmt.Fprintf(stderr, "fleet: %v\n", err)
			return 1
		}
		start = time.Now()
		res := dr.Report()
		reportWall := time.Since(start)
		if err := res.Render(stdout); err != nil {
			fmt.Fprintf(stderr, "fleet: %v\n", err)
			return 1
		}
		printRate(stderr, sessions, doc.SessionSeconds(), doc.DurationSeconds, wall)
		c, width := dr.Counts()
		printWork(stderr, cpuOverWall, c, width)
		fmt.Fprintf(stderr, "fleet: refairness report in %.2f s wall\n", reportWall.Seconds())
		peakHeap, peakRSS := peakMemory()
		return memoryStatus(stderr, peakHeap, peakRSS, sessions, *maxheap)
	}

	var list []string
	for _, a := range strings.Split(*algos, ",") {
		if a = strings.TrimSpace(a); a != "" {
			list = append(list, a)
		}
	}
	doc, err := experiments.FleetDoc(*n, *duration, *stagger, *maxn, *seed, list, *links)
	if err != nil {
		fmt.Fprintf(stderr, "fleet: %v\n", err)
		return 1
	}
	start, cpu0 := time.Now(), profiling.CPUSeconds()
	fr, err := experiments.Fleet(doc, *shards)
	wall := time.Since(start)
	cpuOverWall := (profiling.CPUSeconds() - cpu0) / wall.Seconds()
	if err != nil {
		fmt.Fprintf(stderr, "fleet: %v\n", err)
		return 1
	}
	start = time.Now()
	res, sum := fr.Report()
	reportWall := time.Since(start)
	peakHeap, peakRSS := peakMemory()
	if *jsonOut {
		enc, err := json.Marshal(jsonSummary{*sum, wall.Seconds(), sum.SessionSeconds / wall.Seconds(), cpuOverWall,
			peakHeap, peakRSS, float64(peakHeap) / float64(sum.Sessions)})
		if err != nil {
			fmt.Fprintf(stderr, "fleet: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(enc))
	} else if err := res.Render(stdout); err != nil {
		fmt.Fprintf(stderr, "fleet: %v\n", err)
		return 1
	}
	printRate(stderr, sum.Sessions, sum.SessionSeconds, sum.DurationSeconds, wall)
	c, width := fr.Counts()
	printWork(stderr, cpuOverWall, c, width)
	fmt.Fprintf(stderr, "fleet: contention report in %.2f s wall\n", reportWall.Seconds())
	return memoryStatus(stderr, peakHeap, peakRSS, sum.Sessions, *maxheap)
}

// printRate prints the run's simulation rate: simulated session-seconds
// (Σ over sessions of leave-or-horizon − join) per wall second.
func printRate(stderr io.Writer, sessions int, sessionSeconds, horizon float64, wall time.Duration) {
	fmt.Fprintf(stderr, "fleet: %d sessions, %.0f session-seconds over %.0f s, simulated in %.2f s wall — %.0f session-seconds/sec\n",
		sessions, sessionSeconds, horizon, wall.Seconds(), sessionSeconds/wall.Seconds())
}

// printWork prints how the simulation used the machine: its CPU
// seconds per wall second, the width each shard decided on, and how
// many of its loop heads fanned their decisions out over that width.
func printWork(stderr io.Writer, cpuOverWall float64, c testbed.Counts, width int) {
	fmt.Fprintf(stderr, "fleet: cpu/wall %.2f, decide width %d, %d fan-outs over %d loop heads\n",
		cpuOverWall, width, c.Fanouts, c.LoopHeads)
}

// memoryStatus prints the peak heap and RSS line and returns the exit
// status: 1 when budget is positive and the peak heap exceeds it, 0
// otherwise.
func memoryStatus(stderr io.Writer, heap, rss uint64, sessions int, budget uint64) int {
	fmt.Fprintf(stderr, "fleet: peak heap %.1f MB (%.0f B/session), peak RSS %.1f MB\n",
		float64(heap)/1e6, float64(heap)/float64(sessions), float64(rss)/1e6)
	if budget > 0 && heap > budget {
		fmt.Fprintf(stderr, "fleet: peak heap %d bytes exceeds -maxheap budget %d\n", heap, budget)
		return 1
	}
	return 0
}

// jsonSummary is the -json line: the run's FleetSummary plus the
// process-level figures. SessionsPerSec is simulated session-seconds
// per wall second (session_seconds / wall: Σ over sessions of horizon −
// join) — the same quantity the stderr line reports, and the repo
// benchmark reports as session_s_per_s.
// CPUOverWall is the process's CPU seconds per wall second of the run:
// read beside decide_width, it says whether a fleet is using the
// machine or stepping on one core.
type jsonSummary struct {
	experiments.FleetSummary
	WallSeconds     float64 `json:"wall_seconds"`
	SessionsPerSec  float64 `json:"sessions_per_sec"`
	CPUOverWall     float64 `json:"cpu_over_wall"`
	PeakHeapBytes   uint64  `json:"peak_heap_bytes"`
	PeakRSSBytes    uint64  `json:"peak_rss_bytes"`
	BytesPerSession float64 `json:"bytes_per_session"`
}

// peakMemory reports the process's peak heap (runtime HeapSys — the
// high-water mark of heap memory obtained from the OS) and peak RSS
// (VmHWM from /proc/self/status; 0 where unavailable).
func peakMemory() (heap, rss uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap = ms.HeapSys
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return heap, 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			var kb uint64
			if _, err := fmt.Sscanf(fields[1], "%d", &kb); err == nil {
				rss = kb * 1024
			}
		}
		break
	}
	return heap, rss
}
