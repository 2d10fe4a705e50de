// Command simbench runs the repository's simulator benchmarks and the
// end-to-end reproduce timing, and writes the results as JSON — the
// artifact `make bench` stores as BENCH_sim.json at the repo root so
// performance changes are reviewable alongside the code that caused
// them.
//
// Usage:
//
//	simbench [-out BENCH_sim.json] [-benchtime 1s] [-seed 1]
//	         [-skip-reproduce] [-skip-fleet] [-skip-million]
//
// Three sets of numbers matter: the per-benchmark ns/op and allocs/op
// for the hot paths (engine Step, fast-path SchedulerRun vs the
// always-tick reference SchedulerRunExact), the wall-clock seconds of a
// full serial `reproduce -seed N` run, and the fleet
// timings — 10k static, 100k sharded, a dynamic scenario, and the
// million-session memory-diet runs (skippable with -skip-million; they
// take tens of minutes) with peak heap and bytes/session parsed from
// fleet's -json summary. Required
// benchmarks and fleet sizes are checked, so a rename or dropped run
// fails loudly instead of silently thinning the artifact. simbench
// shells out to the go toolchain, so it must run from the repo root
// (or -chdir there).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/loadgen"
	"repro/internal/scenario"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	// Name is the benchmark name with the -cpus suffix stripped
	// (e.g. "BenchmarkSchedulerRun").
	Name string `json:"name"`
	// Package is the Go package the benchmark lives in.
	Package string `json:"package"`
	// Iterations is the b.N the reported averages were taken over.
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present when the benchmark reports
	// allocations (all of ours do).
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// ReproduceTiming is the wall-clock measurement of one full serial
// reproduce run.
type ReproduceTiming struct {
	Args    string  `json:"args"`
	Seconds float64 `json:"seconds"`
}

// FleetTiming is the wall-clock measurement of one cmd/fleet run — the
// fleet-scale orchestration number the event-queue scheduler is judged
// by. One timing runs from flags (the static 10k contention workload)
// and one from a checked-in dynamic scenario document, so the overhead
// of mutation horizons on the event queue is tracked release to
// release.
type FleetTiming struct {
	// Scenario is the document the run was built from, empty for the
	// flag-driven static workload.
	Scenario string `json:"scenario,omitempty"`
	Sessions int    `json:"sessions"`
	// DurationSec is the simulated horizon of the run.
	DurationSec float64 `json:"duration_sec"`
	Args        string  `json:"args"`
	Seconds     float64 `json:"seconds"`
	// SessionsPerSec is simulated session-seconds advanced per wall
	// second (sessions × duration / wall), the scheduler's fleet
	// throughput metric.
	SessionsPerSec float64 `json:"sessions_per_sec"`
	// The remaining fields are parsed from fleet -json output and are
	// absent for runs that cannot emit it (the scenario document path).
	RecordMode      string  `json:"record_mode,omitempty"`
	PeakHeapBytes   uint64  `json:"peak_heap_bytes,omitempty"`
	PeakRSSBytes    uint64  `json:"peak_rss_bytes,omitempty"`
	BytesPerSession float64 `json:"bytes_per_session,omitempty"`
	EquilibriumJain float64 `json:"equilibrium_jain,omitempty"`
	AggregateGbps   float64 `json:"aggregate_gbps,omitempty"`
}

// ServiceTiming is the measured outcome of one falconload mixture run
// against the in-process web service — the serving-path numbers
// (throughput, latency percentiles, cache/coalesce hit rates) that sit
// beside the simulator benchmarks in BENCH_sim.json. The dup-heavy
// mixture doubles as the single-flight proof: every duplicate group
// must resolve with exactly one simulation and byte-identical results
// across members, checked per group by the load generator itself.
type ServiceTiming struct {
	// Mixture names the workload ("mixed", "dup-heavy").
	Mixture string `json:"mixture"`
	Args    string `json:"args"`
	// Requests and Concurrency describe the issued workload.
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	Seconds     float64 `json:"seconds"`
	// RequestsPerSec is completed scenario submissions per wall
	// second (POST issued → terminal status observed).
	RequestsPerSec float64 `json:"requests_per_sec"`
	P50Ms          float64 `json:"p50_ms"`
	P99Ms          float64 `json:"p99_ms"`
	// CacheHitRate and CoalesceHitRate partition the requests that
	// never ran a simulation; Simulated counts the ones that did.
	CacheHitRate    float64 `json:"cache_hit_rate"`
	CoalesceHitRate float64 `json:"coalesce_hit_rate"`
	Simulated       int     `json:"simulated"`
	// DupGroups / DupSingleRun / DupBitwiseEqual are the coalescing
	// invariants: groups of identical concurrent submissions, each
	// resolving to one simulation with bitwise-equal results.
	DupGroups       int  `json:"dup_groups"`
	DupSingleRun    bool `json:"dup_single_run"`
	DupBitwiseEqual bool `json:"dup_bitwise_equal"`
	// SSEStreams counts requests followed over the event stream
	// rather than by polling.
	SSEStreams int `json:"sse_streams"`
	Errors     int `json:"errors"`
}

// Report is the BENCH_sim.json document.
type Report struct {
	// GeneratedAt is the RFC 3339 timestamp of the run.
	GeneratedAt string `json:"generated_at"`
	// GoVersion records the toolchain the numbers were taken with.
	GoVersion  string            `json:"go_version"`
	Benchtime  string            `json:"benchtime"`
	Benchmarks []Benchmark       `json:"benchmarks"`
	Reproduce  []ReproduceTiming `json:"reproduce,omitempty"`
	Fleet      []FleetTiming     `json:"fleet,omitempty"`
	Service    []ServiceTiming   `json:"service,omitempty"`
}

func main() {
	out := flag.String("out", "BENCH_sim.json", "output JSON path")
	benchtime := flag.String("benchtime", "1s", "go test -benchtime per benchmark")
	seed := flag.Int64("seed", 1, "reproduce seed")
	skipReproduce := flag.Bool("skip-reproduce", false, "skip the end-to-end reproduce timings")
	skipFleet := flag.Bool("skip-fleet", false, "skip the 10k-session fleet timing")
	skipMillion := flag.Bool("skip-million", false, "skip the million-session fleet timings (tens of minutes of wall time)")
	skipService := flag.Bool("skip-service", false, "skip the web-service load-generator timings")
	flag.Parse()

	report := Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   goVersion(),
		Benchtime:   *benchtime,
	}

	pkgs := []string{"./internal/netsim/", "./internal/testbed/", "./internal/bayesopt/"}
	fmt.Fprintf(os.Stderr, "simbench: benchmarking %s (benchtime %s)...\n", strings.Join(pkgs, " "), *benchtime)
	benches, err := runBenchmarks(pkgs, *benchtime)
	if err != nil {
		fatal("%v", err)
	}
	if err := checkRequired(benches); err != nil {
		fatal("%v", err)
	}
	report.Benchmarks = benches

	if !*skipReproduce {
		timing, err := timeReproduce(*seed)
		if err != nil {
			fatal("%v", err)
		}
		report.Reproduce = []ReproduceTiming{timing}
	}

	if !*skipFleet {
		fleets, err := timeFleet(*seed, *skipMillion)
		if err != nil {
			fatal("%v", err)
		}
		if err := checkRequiredFleet(fleets, *skipMillion); err != nil {
			fatal("%v", err)
		}
		report.Fleet = fleets
	}

	if !*skipService {
		services, err := timeService(*seed)
		if err != nil {
			fatal("%v", err)
		}
		if err := checkRequiredService(services); err != nil {
			fatal("%v", err)
		}
		report.Service = services
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "simbench: wrote %s (%d benchmarks)\n", *out, len(benches))
}

// requiredBenchmarks are the hot-path benchmarks BENCH_sim.json must
// always carry: the decision path (Search.Next at the experiments'
// MaxN=32 domain and the 64-point large domain), the simulator loop,
// the fleet-scale allocator (the 1000-flow class water-fill and the
// 256-task engine tick it feeds), and the 10k-session scheduler step
// with and without the full-recording boundary. A rename or accidental
// deletion fails the run instead of silently dropping the number
// reviewers track.
var requiredBenchmarks = []string{
	"BenchmarkSearchNext",
	"BenchmarkSearchNextLargeDomain",
	"BenchmarkSchedulerRunMinute",
	"BenchmarkAllocate1kFlows",
	"BenchmarkFleetStep",
	"BenchmarkFleetStep10k",
	"BenchmarkFleetRecordFull10k",
	"BenchmarkFleetStep100k",
}

// checkRequired verifies every required benchmark produced a result.
func checkRequired(benches []Benchmark) error {
	have := make(map[string]bool, len(benches))
	for _, b := range benches {
		have[b.Name] = true
	}
	var missing []string
	for _, name := range requiredBenchmarks {
		if !have[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("required benchmarks missing from results: %s", strings.Join(missing, ", "))
	}
	return nil
}

// checkRequiredFleet verifies every configured fleet size produced a
// timing. The fleet numbers are the artifact's headline — a silently
// dropped 10k, 100k, or million-session entry would let a scaling
// regression land unreviewed, so a missing size fails the run the same
// way a missing benchmark does.
func checkRequiredFleet(fleets []FleetTiming, skipMillion bool) error {
	required := []int{10000, 100000}
	if !skipMillion {
		required = append(required, 1000000)
	}
	have := make(map[int]bool, len(fleets))
	for _, tm := range fleets {
		have[tm.Sessions] = true
	}
	var missing []string
	for _, n := range required {
		if !have[n] {
			missing = append(missing, strconv.Itoa(n))
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("required fleet sizes missing from timings: %s sessions", strings.Join(missing, ", "))
	}
	return nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "simbench: "+format+"\n", args...)
	os.Exit(1)
}

// goVersion returns `go version`'s third field (e.g. "go1.22.5").
func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return "unknown"
	}
	fields := strings.Fields(string(out))
	if len(fields) >= 3 {
		return fields[2]
	}
	return strings.TrimSpace(string(out))
}

// runBenchmarks executes `go test -bench . -benchmem` over pkgs and
// parses the result lines.
func runBenchmarks(pkgs []string, benchtime string) ([]Benchmark, error) {
	args := append([]string{"test", "-run", "xxx", "-bench", ".", "-benchmem", "-benchtime", benchtime}, pkgs...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench: %v\n%s%s", err, stdout.String(), stderr.String())
	}
	var benches []Benchmark
	pkg := ""
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "pkg:") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		if b, ok := parseBenchLine(line, pkg); ok {
			benches = append(benches, b)
		}
	}
	return benches, sc.Err()
}

// parseBenchLine parses one result line of the form
//
//	BenchmarkName-8   4893   241550 ns/op   77824 B/op   146 allocs/op
func parseBenchLine(line, pkg string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Benchmark{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		name = name[:i]
	}
	iters, err1 := strconv.ParseInt(fields[1], 10, 64)
	ns, err2 := strconv.ParseFloat(fields[2], 64)
	if err1 != nil || err2 != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Package: pkg, Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		}
	}
	return b, true
}

// timeFleet builds cmd/fleet and times the fleet-scale contention runs
// on the event-queue scheduler — the static 10k workload, the sharded
// 100k fleet, a dynamic scenario document, and (unless skipped) the
// million-session memory-diet runs — recording sessions_per_sec
// (simulated session-seconds per wall second) plus the memory figures
// each run's -json summary reports.
func timeFleet(seed int64, skipMillion bool) ([]FleetTiming, error) {
	dir, err := os.MkdirTemp("", "simbench-fleet")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "fleet")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/fleet").CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build fleet: %v\n%s", err, out)
	}

	const (
		sessions = 10000
		duration = 600.0
	)
	run := func(tm FleetTiming, args []string) (FleetTiming, error) {
		fmt.Fprintf(os.Stderr, "simbench: timing fleet %s...\n", strings.Join(args, " "))
		// The scenario path renders a report and cannot emit the JSON
		// summary; every flag-built run is timed with -json so the
		// memory figures land in the artifact.
		isScenario := len(args) > 0 && args[0] == "-scenario"
		runArgs := args
		if !isScenario {
			runArgs = append(append([]string{}, args...), "-json")
		}
		cmd := exec.Command(bin, runArgs...)
		var stdout, stderr bytes.Buffer
		if !isScenario {
			cmd.Stdout = &stdout
		}
		cmd.Stderr = &stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return tm, fmt.Errorf("fleet %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
		}
		tm.Args = strings.Join(args, " ")
		tm.Seconds = time.Since(start).Seconds()
		tm.SessionsPerSec = float64(tm.Sessions) * tm.DurationSec / tm.Seconds
		if !isScenario {
			var sum struct {
				RecordMode      string  `json:"record_mode"`
				EquilibriumJain float64 `json:"equilibrium_jain"`
				AggregateGbps   float64 `json:"aggregate_gbps"`
				PeakHeapBytes   uint64  `json:"peak_heap_bytes"`
				PeakRSSBytes    uint64  `json:"peak_rss_bytes"`
				BytesPerSession float64 `json:"bytes_per_session"`
			}
			if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &sum); err != nil {
				return tm, fmt.Errorf("fleet %s: parse -json summary: %v\n%s", strings.Join(args, " "), err, stdout.String())
			}
			tm.RecordMode = sum.RecordMode
			tm.EquilibriumJain = sum.EquilibriumJain
			tm.AggregateGbps = sum.AggregateGbps
			tm.PeakHeapBytes = sum.PeakHeapBytes
			tm.PeakRSSBytes = sum.PeakRSSBytes
			tm.BytesPerSession = sum.BytesPerSession
		}
		return tm, nil
	}

	static, err := run(FleetTiming{Sessions: sessions, DurationSec: duration}, []string{
		"-n", strconv.Itoa(sessions),
		"-duration", strconv.FormatFloat(duration, 'f', -1, 64),
		"-stagger", "0.05",
		"-seed", strconv.FormatInt(seed, 10),
	})
	if err != nil {
		return nil, err
	}

	// The sharded 100k-session fleet: ten independent 10 Gbps
	// bottleneck links, each link's sessions on their own engine. The
	// same run is timed serially and with four shard workers; on a
	// multi-core host the second figure shows the shard-parallel
	// speedup (output is byte-identical either way).
	const (
		bigSessions = 100000
		bigDuration = 120.0
	)
	var sharded []FleetTiming
	for _, workers := range []string{"1", "4"} {
		tm, err := run(FleetTiming{Sessions: bigSessions, DurationSec: bigDuration}, []string{
			"-n", strconv.Itoa(bigSessions),
			"-duration", strconv.FormatFloat(bigDuration, 'f', -1, 64),
			"-stagger", "0.001",
			"-links", "10",
			"-shards", workers,
			"-seed", strconv.FormatInt(seed, 10),
		})
		if err != nil {
			return nil, err
		}
		sharded = append(sharded, tm)
	}

	// The same fleet under a mid-run cross-traffic wave. The document
	// mirrors the static workload's join ramp (one join every 50 ms,
	// hc/gd/bo interleaved), so the two numbers differ only by the
	// mutation schedule; session count and horizon come from the
	// document itself so the timings stay comparable if the file
	// changes.
	scenarioPath := filepath.Join("examples", "scenarios", "fleet-10k-flap.json")
	doc, err := scenario.ParseFile(scenarioPath)
	if err != nil {
		return nil, fmt.Errorf("dynamic fleet scenario: %v", err)
	}
	dynamic, err := run(FleetTiming{
		Scenario:    doc.Name,
		Sessions:    len(doc.AgentIDs()),
		DurationSec: doc.DurationSeconds,
	}, []string{"-scenario", scenarioPath})
	if err != nil {
		return nil, err
	}
	fleets := append([]FleetTiming{static, dynamic}, sharded...)
	if skipMillion {
		return fleets, nil
	}

	// The million-session fleet, one process: 100 links, 10k sessions
	// each, streaming-aggregate recording (the full-fidelity timelines
	// would need tens of GB).
	const (
		millionSessions = 1000000
		millionDuration = 60.0
	)
	million, err := run(FleetTiming{Sessions: millionSessions, DurationSec: millionDuration}, []string{
		"-n", strconv.Itoa(millionSessions),
		"-duration", strconv.FormatFloat(millionDuration, 'f', -1, 64),
		"-stagger", "0.00002",
		"-links", "100",
		"-shards", "1",
		"-seed", strconv.FormatInt(seed, 10),
	})
	if err != nil {
		return nil, err
	}
	return append(fleets, million), nil
}

// timeReproduce builds cmd/reproduce and times a full serial run.
func timeReproduce(seed int64) (ReproduceTiming, error) {
	dir, err := os.MkdirTemp("", "simbench")
	if err != nil {
		return ReproduceTiming{}, err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "reproduce")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/reproduce").CombinedOutput(); err != nil {
		return ReproduceTiming{}, fmt.Errorf("build reproduce: %v\n%s", err, out)
	}

	args := []string{"-seed", strconv.FormatInt(seed, 10), "-parallel", "1"}
	line := strings.Join(args, " ")
	fmt.Fprintf(os.Stderr, "simbench: timing reproduce %s...\n", line)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = nil // discard: only the wall time matters here
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return ReproduceTiming{}, fmt.Errorf("reproduce %s: %v\n%s", line, err, stderr.String())
	}
	return ReproduceTiming{Args: line, Seconds: time.Since(start).Seconds()}, nil
}

// timeService builds cmd/falconload and runs it in-process against
// the web service for two mixtures: "mixed" (a realistic blend of hot
// cache hits, unique documents, duplicate-in-flight groups, and SSE
// followers) and "dup-heavy" (almost entirely wide duplicate groups —
// the single-flight stress: N identical concurrent submissions must
// produce exactly one simulation and N bitwise-equal answers).
func timeService(seed int64) ([]ServiceTiming, error) {
	dir, err := os.MkdirTemp("", "simbench-service")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "falconload")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/falconload").CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build falconload: %v\n%s", err, out)
	}

	mixtures := []struct {
		name string
		args []string
	}{
		{name: "mixed", args: []string{
			"-n", "2000", "-c", "64",
			"-hot", "0.5", "-unique", "0.3", "-dup", "0.2", "-dupwidth", "8",
			"-sse", "0.25",
		}},
		{name: "dup-heavy", args: []string{
			"-n", "1000", "-c", "64",
			"-hot", "0.1", "-unique", "0", "-dup", "0.9", "-dupwidth", "16",
			"-sse", "0.25",
		}},
	}

	var timings []ServiceTiming
	for _, mix := range mixtures {
		args := append([]string{"-inproc", "-json", "-seed", strconv.FormatInt(seed, 10)}, mix.args...)
		fmt.Fprintf(os.Stderr, "simbench: timing falconload %s (%s)...\n", mix.name, strings.Join(mix.args, " "))
		cmd := exec.Command(bin, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("falconload %s: %v\n%s", mix.name, err, stderr.String())
		}
		var res loadgen.Result
		if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &res); err != nil {
			return nil, fmt.Errorf("falconload %s: parse -json output: %v\n%s", mix.name, err, stdout.String())
		}
		var c int
		for i, a := range mix.args {
			if a == "-c" && i+1 < len(mix.args) {
				c, _ = strconv.Atoi(mix.args[i+1])
			}
		}
		timings = append(timings, ServiceTiming{
			Mixture:         mix.name,
			Args:            strings.Join(mix.args, " "),
			Requests:        res.Requests,
			Concurrency:     c,
			Seconds:         res.Seconds,
			RequestsPerSec:  res.RequestsPerSec,
			P50Ms:           res.P50Ms,
			P99Ms:           res.P99Ms,
			CacheHitRate:    res.CacheHitRate,
			CoalesceHitRate: res.CoalesceHitRate,
			Simulated:       res.Simulated,
			DupGroups:       res.DupGroups,
			DupSingleRun:    res.DupSingleRun,
			DupBitwiseEqual: res.DupBitwiseEqual,
			SSEStreams:      res.SSEStreams,
			Errors:          res.Errors,
		})
	}
	return timings, nil
}

// checkRequiredService enforces the serving-path invariants on the
// recorded mixtures: no request errors anywhere, and the dup-heavy
// mixture proving single-flight — every duplicate group one
// simulation, results bitwise-equal, and a nonzero coalesce rate.
func checkRequiredService(timings []ServiceTiming) error {
	var dupHeavy *ServiceTiming
	for i := range timings {
		tm := &timings[i]
		if tm.Errors > 0 {
			return fmt.Errorf("service mixture %s recorded %d request errors", tm.Mixture, tm.Errors)
		}
		if tm.RequestsPerSec <= 0 {
			return fmt.Errorf("service mixture %s has no measured throughput", tm.Mixture)
		}
		if tm.Mixture == "dup-heavy" {
			dupHeavy = tm
		}
	}
	if dupHeavy == nil {
		return fmt.Errorf("service timings missing the dup-heavy mixture")
	}
	if dupHeavy.DupGroups == 0 || !dupHeavy.DupSingleRun {
		return fmt.Errorf("dup-heavy mixture: a duplicate group ran more than one simulation (groups=%d)", dupHeavy.DupGroups)
	}
	if !dupHeavy.DupBitwiseEqual {
		return fmt.Errorf("dup-heavy mixture: duplicate-group results were not bitwise equal")
	}
	if dupHeavy.CoalesceHitRate <= 0 {
		return fmt.Errorf("dup-heavy mixture: single-flight never engaged (coalesce rate 0)")
	}
	return nil
}
