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
//	      [-links K] [-shards W] [-record auto|full|aggregate|off] [-maxheap BYTES]
//	      [-json] [-cpuprofile FILE] [-memprofile FILE]
//	fleet -scenario FILE.json [-seed N] [-shards W] [-maxheap BYTES]
//	      [-cpuprofile FILE] [-memprofile FILE]
//
// With -links K > 1 the fleet spreads over K independent bottleneck
// links (session i routes over link i mod K); each link's sessions run
// as their own shard and -shards bounds how many shards step
// concurrently; where shards are fewer than -shards, each shard decides
// its due sessions that many times wider instead (the decide width,
// printed on stderr beside cpu/wall). -json replaces the report with a
// one-line summary (Jain, aggregate Gbps, wall seconds,
// session-seconds/sec, cpu/wall, decide width, peak heap, record mode).
//
// -record selects recording fidelity (see experiments.FleetConfig):
// "auto" (default) uses full per-session timelines below 50 000
// sessions and the constant-space streaming aggregates at or above —
// both produce bitwise-identical metrics. -maxheap, when positive,
// exits with status 1 if the post-run peak heap exceeds the budget (the
// CI memory smoke), on either road.
//
// With -scenario, the flag-built fleet is replaced by a declarative
// scenario document (see internal/scenario) and the run reports
// time-to-refairness around every compiled link-capacity horizon via
// experiments.DynamicFleet. The document describes the fleet, so the
// flags that build one (-n, -duration, -stagger, -maxn, -algos, -links,
// -record, -json) are refused beside it rather than ignored; a
// noise-free fleet is a document whose "env" sets "noise_std_dev": 0.
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
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// flagRoadOnly names the flags that build a fleet from flags; a
// scenario document describes its own fleet, so -scenario refuses them.
var flagRoadOnly = []string{"n", "duration", "stagger", "maxn", "algos", "links", "record", "json"}

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
	record := fs.String("record", "auto", "recording fidelity: auto, full, aggregate, or off (auto = aggregate at ≥50000 sessions, full below); metrics are bitwise identical between full and aggregate")
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
		doc, err := scenario.ParseFile(*scenarioPath)
		if err != nil {
			fmt.Fprintf(stderr, "fleet: %v\n", err)
			return 1
		}
		// -seed overrides the document's seed only when set explicitly.
		if set["seed"] {
			doc.Seed = *seed
		}
		sessions := len(doc.AgentIDs())
		start := time.Now()
		res, err := experiments.DynamicFleet(doc, *shards)
		wall := time.Since(start)
		if err != nil {
			fmt.Fprintf(stderr, "fleet: %v\n", err)
			return 1
		}
		if err := res.Render(stdout); err != nil {
			fmt.Fprintf(stderr, "fleet: %v\n", err)
			return 1
		}
		printRate(stderr, sessions, doc.SessionSeconds(), doc.DurationSeconds, wall)
		peakHeap, peakRSS := peakMemory()
		return memoryStatus(stderr, "", peakHeap, peakRSS, sessions, *maxheap)
	}

	var list []string
	for _, a := range strings.Split(*algos, ",") {
		if a = strings.TrimSpace(a); a != "" {
			list = append(list, a)
		}
	}
	recordMode := *record
	if recordMode == "auto" {
		// Full fidelity is O(sessions × samples) memory; past this
		// point the streaming aggregates carry the run. Metrics are
		// bitwise identical either way.
		if *n >= 50000 {
			recordMode = "aggregate"
		} else {
			recordMode = "full"
		}
	}
	start, cpu0 := time.Now(), cpuSeconds()
	res, sum, err := experiments.Fleet(experiments.FleetConfig{
		Sessions:   *n,
		Duration:   *duration,
		Stagger:    *stagger,
		MaxN:       *maxn,
		Seed:       *seed,
		Algorithms: list,
		Links:      *links,
		Workers:    *shards,
		RecordMode: recordMode,
	})
	wall := time.Since(start)
	cpuOverWall := (cpuSeconds() - cpu0) / wall.Seconds()
	if err != nil {
		fmt.Fprintf(stderr, "fleet: %v\n", err)
		return 1
	}
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
	fmt.Fprintf(stderr, "fleet: cpu/wall %.2f, decide width %d\n", cpuOverWall, sum.DecideWidth)
	return memoryStatus(stderr, "record "+sum.RecordMode+", ", peakHeap, peakRSS, sum.Sessions, *maxheap)
}

// printRate prints the run's simulation rate: simulated session-seconds
// (Σ over sessions of leave-or-horizon − join) per wall second.
func printRate(stderr io.Writer, sessions int, sessionSeconds, horizon float64, wall time.Duration) {
	fmt.Fprintf(stderr, "fleet: %d sessions, %.0f session-seconds over %.0f s, simulated in %.2f s wall — %.0f session-seconds/sec\n",
		sessions, sessionSeconds, horizon, wall.Seconds(), sessionSeconds/wall.Seconds())
}

// memoryStatus prints the peak heap and RSS line (after prefix) and
// returns the exit status: 1 when budget is positive and the peak heap
// exceeds it, 0 otherwise.
func memoryStatus(stderr io.Writer, prefix string, heap, rss uint64, sessions int, budget uint64) int {
	fmt.Fprintf(stderr, "fleet: %speak heap %.1f MB (%.0f B/session), peak RSS %.1f MB\n",
		prefix, float64(heap)/1e6, float64(heap)/float64(sessions), float64(rss)/1e6)
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

// cpuSeconds is the process's user plus system CPU time so far, from
// getrusage; 0 where that fails.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
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
