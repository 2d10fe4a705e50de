// Command fleet runs the fleet-scale contention workload: hundreds to
// tens of thousands of concurrent Falcon sessions (a hill-climbing /
// gradient-descent / Bayesian-optimization mix) joining one shared
// 10 Gbps bottleneck, each optimizing its own concurrency. It reports
// the time for the fleet to reach a Jain fairness index of 0.9, the
// equilibrium Jain index, and aggregate throughput, plus wall time and
// simulation rate (session-seconds of fleet simulated per wall second)
// on stderr so stdout stays byte-deterministic.
//
// Usage:
//
//	fleet [-n N] [-duration S] [-stagger S] [-maxn N] [-seed N] [-algos hc,gd,bo]
//	      [-links K] [-shards W] [-record auto|full|aggregate|off]
//	      [-memo auto|on|off] [-nonoise] [-seedgroups G] [-maxheap BYTES]
//	      [-json] [-exact] [-scan] [-cpuprofile FILE] [-memprofile FILE]
//	fleet -scenario FILE.json [-seed N] [-shards W] [-exact] [-scan]
//
// With -links K > 1 the fleet spreads over K independent bottleneck
// links (session i routes over link i mod K); each link's sessions run
// as their own shard and -shards bounds how many shards step
// concurrently; where shards are fewer than -shards, each shard decides
// its due sessions that many times wider instead (the decide width,
// printed on stderr beside cpu/wall). -json replaces the report with a
// one-line summary (Jain, aggregate Gbps, wall seconds,
// session-seconds/sec, cpu/wall, decide width, peak heap, decision-memo
// hit rates, record mode).
//
// -record selects recording fidelity (see experiments.FleetConfig):
// "auto" (default) uses full per-session timelines below 50 000
// sessions and the constant-space streaming aggregates at or above —
// both produce bitwise-identical metrics. -memo enables cross-session
// decision memoization; "auto" turns it on exactly when -nonoise is
// set, since caching only hits when identical sessions exist (and the
// per-decision store traffic is wasted otherwise). -nonoise zeroes
// measurement noise and -seedgroups G collapses the fleet to G
// distinct agent populations — together they create the exact twins
// memoization collapses. -maxheap, when positive, exits with status 1
// if the post-run peak heap exceeds the budget (the CI memory smoke).
//
// With -scenario, the flag-built fleet is replaced by a declarative
// scenario document (see internal/scenario) and the run reports
// time-to-refairness around every compiled link-capacity horizon via
// experiments.DynamicFleet.
//
// The run is deterministic for a given flag set: the same seed always
// produces byte-identical output, in the event-horizon (default) and
// -exact stepping modes, and with the event-queue (default) and -scan
// scheduler orchestration.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

func main() { os.Exit(run()) }

// run holds main's body so profile-flushing defers execute before the
// process exits with a status code.
func run() int {
	n := flag.Int("n", 500, "number of concurrent sessions")
	duration := flag.Float64("duration", 600, "simulated horizon in seconds")
	stagger := flag.Float64("stagger", 0.5, "join spacing in seconds (session i joins at i*stagger)")
	maxn := flag.Int("maxn", 8, "concurrency search-domain bound per agent")
	seed := flag.Int64("seed", 1, "base seed (session i's agent is seeded seed+i)")
	algos := flag.String("algos", "hc,gd,bo", "comma-separated algorithm mix cycled across sessions")
	links := flag.Int("links", 1, "number of independent bottleneck links; session i routes over link i mod links, each link runs as its own shard")
	shards := flag.Int("shards", 0, "worker budget: max shards stepped concurrently, and with fewer shards than workers the width each decides on (0 = harness default, 1 = serial); never affects output")
	record := flag.String("record", "auto", "recording fidelity: auto, full, aggregate, or off (auto = aggregate at ≥50000 sessions, full below); metrics are bitwise identical between full and aggregate")
	memo := flag.String("memo", "auto", "cross-session decision memoization: auto, on, or off (auto = on iff -nonoise); never affects output")
	nonoise := flag.Bool("nonoise", false, "zero the environment's measurement noise, making same-seed sessions exact twins")
	seedgroups := flag.Int("seedgroups", 0, "collapse agent seeds to seed+i%G, creating G distinct populations of identical sessions (0 = all distinct)")
	maxheap := flag.Uint64("maxheap", 0, "exit 1 if post-run peak heap (runtime HeapSys) exceeds this many bytes (0 = no budget)")
	jsonOut := flag.Bool("json", false, "emit a one-line machine-readable JSON summary instead of the report")
	scenarioPath := flag.String("scenario", "", "run a declarative scenario document (JSON) through the dynamic-fleet report instead of the flag-built fleet")
	exact := flag.Bool("exact", false, "simulate on the exact always-tick path instead of event-horizon stepping")
	scan := flag.Bool("scan", false, "use the legacy linear-scan scheduler loop instead of the event queue (A/B baseline; output must be byte-identical)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	testbed.SetDefaultExact(*exact)
	testbed.SetDefaultEventQueue(!*scan)
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
			}
		}()
	}

	if *scenarioPath != "" {
		doc, err := scenario.ParseFile(*scenarioPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
			return 1
		}
		// -seed overrides the document's seed only when set explicitly.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				doc.Seed = *seed
			}
		})
		sessions := len(doc.AgentIDs())
		start := time.Now()
		res, err := experiments.DynamicFleet(doc)
		wall := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
			return 1
		}
		if err := res.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
			return 1
		}
		sessSec := float64(sessions) * doc.DurationSeconds / wall.Seconds()
		fmt.Fprintf(os.Stderr, "fleet: %d sessions × %.0f s simulated in %.2f s wall — %.0f session-seconds/sec\n",
			sessions, doc.DurationSeconds, wall.Seconds(), sessSec)
		return 0
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
	useMemo := false
	switch *memo {
	case "on":
		useMemo = true
	case "off":
	case "auto":
		// Memoization only hits when identical sessions exist, which
		// requires noise off; on a noisy fleet every lookup misses and
		// every BO decision stores a dead GP snapshot.
		useMemo = *nonoise
	default:
		fmt.Fprintf(os.Stderr, "fleet: unknown -memo %q (want auto, on, or off)\n", *memo)
		return 1
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
		Memo:       useMemo,
		NoNoise:    *nonoise,
		SeedGroups: *seedgroups,
	})
	wall := time.Since(start)
	cpuOverWall := (cpuSeconds() - cpu0) / wall.Seconds()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
		return 1
	}
	peakHeap, peakRSS := peakMemory()
	sessSec := float64(*n) * *duration / wall.Seconds()
	if *jsonOut {
		enc, err := json.Marshal(jsonSummary{*sum, wall.Seconds(), sessSec, cpuOverWall,
			peakHeap, peakRSS, float64(peakHeap) / float64(*n)})
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
			return 1
		}
		fmt.Println(string(enc))
	} else if err := res.Render(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "fleet: %d sessions × %.0f s simulated in %.2f s wall — %.0f session-seconds/sec\n",
		*n, *duration, wall.Seconds(), sessSec)
	fmt.Fprintf(os.Stderr, "fleet: cpu/wall %.2f, decide width %d\n", cpuOverWall, sum.DecideWidth)
	fmt.Fprintf(os.Stderr, "fleet: record %s, peak heap %.1f MB (%.0f B/session), peak RSS %.1f MB\n",
		sum.RecordMode, float64(peakHeap)/1e6, float64(peakHeap)/float64(*n), float64(peakRSS)/1e6)
	if useMemo {
		fmt.Fprintf(os.Stderr, "fleet: decision memo %d/%d hits (%.1f%%), sweep memo %d/%d hits (%.1f%%)\n",
			sum.DecisionMemoHits, sum.DecisionMemoLookups, 100*sum.DecisionMemoHitRate,
			sum.SweepMemoHits, sum.SweepMemoLookups, 100*sum.SweepMemoHitRate)
	}
	if *maxheap > 0 && peakHeap > *maxheap {
		fmt.Fprintf(os.Stderr, "fleet: peak heap %d bytes exceeds -maxheap budget %d\n", peakHeap, *maxheap)
		return 1
	}
	return 0
}

// jsonSummary is the -json line: the run's FleetSummary plus the
// process-level figures. SessionsPerSec is simulated session-seconds
// per wall second (sessions × duration / wall) — the same quantity the
// stderr line, simbench, and the repo benchmark report under that name.
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
