// Command benchmark is the repository's benchmark: four workloads over
// the three surfaces people use — the paper suite (experiments.Run),
// fleet scenarios (scenario.Document.Build → Run.Execute /
// testbed.ShardSet) and the web service (webservice.Service over
// loopback HTTP) — driven from outside the program, with inputs made
// from -seed. README.md in this directory explains every workload and
// metric; BENCHMARK.json at the repo root is the contract the driver
// reads.
//
// Usage:
//
//	benchmark -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-spans FILE]
//	benchmark [-workload all] [-aa] [-runs N] [-seed N] [-seconds S] [-trace 0|1]
//
// With one workload named, the process measures it and prints every
// metric, then an "info" line of provenance, then as its last line the
// result object the driver parses. With "all" (the default) it starts
// one child process per workload, so every workload's peak RSS is its
// own, untraced and then traced unless -trace picks one; -aa runs the
// untraced set twice and fails if any end-to-end metric's two medians
// disagree beyond its bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// defaultSeconds is how long one run measures when -seconds is not
// given; it is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// refShare is the part of the measuring time each reference slice
// gets; the workload's own section has the rest.
const refShare = 0.25

// A section gets at least minPasses timed passes however slow the host
// is, because quartiles of fewer mean nothing, and at most maxPasses,
// so that a short section on a long budget does not hold every pass's
// results in memory.
const (
	minPasses = 3
	maxPasses = 64
)

// baselinePasses is how many untraced passes of the workload's own
// section a traced run times first, to compare the traced pass with.
const baselinePasses = 2

// plan is how one run measures: the sizes, how long, how many passes,
// and how long a probe batch lasts. Only the smoke test departs from
// defaultPlan.
type plan struct {
	full, ref            sizes
	budget               time.Duration
	minPasses, maxPasses int
	baselinePasses       int
	probeBatch           time.Duration
}

func defaultPlan(seconds int) plan {
	return plan{
		full: full, ref: ref, budget: time.Duration(seconds) * time.Second,
		minPasses: minPasses, maxPasses: maxPasses, baselinePasses: baselinePasses, probeBatch: probeBatch,
	}
}

// Sizes. full is what a workload runs on its own surface; ref is the
// fixed slice every other workload runs of that surface, so that each
// end-to-end metric is measured on every workload.
type sizes struct {
	suiteSeeds int
	// fleetSessions is the steady fleet's roster, churnSessions the
	// churn fleet's (a multiple of churnUnit).
	fleetSessions, churnSessions int
	fleetDuration                float64
	service                      serviceSizes
}

var (
	full = sizes{
		suiteSeeds: 8, fleetSessions: 10000, churnSessions: 10008, fleetDuration: 120,
		service: serviceSizes{Hit: 6000, Light: 2000, Heavy: 48, DupPairs: 16, HeavyAgents: 60, HeavyDuration: 600},
	}
	ref = sizes{
		suiteSeeds: 1, fleetSessions: 3000, fleetDuration: 120,
		service: serviceSizes{Hit: 3000, Light: 1000, Heavy: 8, DupPairs: 2, HeavyAgents: 60, HeavyDuration: 600},
	}
)

// surfaces are the sections of one workload: its own at full size, and
// a reference slice of each other surface that owns an end-to-end
// metric.
type surfaces struct {
	native section
	refs   []section
	// traceOnly are reference slices only a traced run adds, so that
	// every per-layer metric has a source on every workload.
	traceOnly []section
}

func surfacesFor(workload string, seed int64, fullSize, refSize sizes) (surfaces, error) {
	suite := func(z sizes) section { return suiteSection(seed, z.suiteSeeds) }
	steady := func(z sizes) section { return fleetSection(shapeSteady, seed, z.fleetSessions, z.fleetDuration) }
	service := func(z sizes) section { return serviceSection(seed, z.service) }
	switch workload {
	case paperSuite:
		return surfaces{native: suite(fullSize), refs: []section{steady(refSize), service(refSize)}}, nil
	case fleetSteady:
		return surfaces{native: steady(fullSize), refs: []section{service(refSize)}, traceOnly: []section{suite(refSize)}}, nil
	case fleetChurn:
		churn := fleetSection(shapeChurn, seed, fullSize.churnSessions, fullSize.fleetDuration)
		return surfaces{native: churn, refs: []section{service(refSize)}, traceOnly: []section{suite(refSize)}}, nil
	case serviceMix:
		return surfaces{native: service(fullSize), refs: []section{steady(refSize)}, traceOnly: []section{suite(refSize)}}, nil
	}
	return surfaces{}, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
}

// value is one metric as the driver wants it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly these keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// sectionInfo is the provenance of one section's passes.
type sectionInfo struct {
	Section    string      `json:"section"`
	Passes     int         `json:"passes"`
	PassWall   []float64   `json:"pass_wall_s"`
	Q1         float64     `json:"pass_wall_q1_s"`
	Median     float64     `json:"pass_wall_median_s"`
	Q3         float64     `json:"pass_wall_q3_s"`
	Noisy      bool        `json:"noisy"`
	WarmupWall float64     `json:"warmup_wall_s"`
	Setups     []float64   `json:"setup_s"`
	Host       []hostDelta `json:"pass_host"`
	// Samples holds every timed pass's sample of each end-to-end metric
	// the section owns.
	Samples      map[string][]float64 `json:"pass_samples,omitempty"`
	OutputSHA256 string               `json:"output_sha256"`
	OpsAttempted int                  `json:"ops_attempted"`
	OpsFailed    int                  `json:"ops_failed"`
}

// info is everything a reviewer needs to judge whether a number was
// taken on a quiet host.
type info struct {
	Workload   string        `json:"workload"`
	Seed       int64         `json:"seed"`
	Seconds    int           `json:"seconds"`
	Trace      bool          `json:"trace"`
	NProc      int           `json:"nproc"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	GoVersion  string        `json:"go_version"`
	Commit     string        `json:"commit"`
	StealFrac  float64       `json:"steal_frac"`
	Noisy      bool          `json:"noisy"`
	WallS      float64       `json:"run_wall_s"`
	Sections   []sectionInfo `json:"sections"`
	Problems   []string      `json:"problems,omitempty"`
	// Unmeasured names end-to-end metrics no pass produced a sample of
	// (a percentile its class had too few requests for).
	Unmeasured []string `json:"unmeasured,omitempty"`
	// Ungated holds the metrics that are reported but not gated.
	Ungated map[string]value `json:"ungated,omitempty"`
	// SelfS is span self time by name from a traced run.
	SelfS map[string]float64 `json:"span_self_s,omitempty"`
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// report is one workload's measured run.
type report struct {
	res  result
	info info
}

func (rep *report) problem(format string, args ...any) {
	rep.res.Correct = false
	rep.info.Problems = append(rep.info.Problems, fmt.Sprintf(format, args...))
}

// absorb folds one section's passes into the report: operation counts,
// failures, and the check that every pass rendered the same bytes.
func (rep *report) absorb(run *sectionRun, traced *outcome) {
	si := sectionInfo{Section: run.name, Passes: len(run.passes), PassWall: run.walls(), Setups: run.setups, WarmupWall: run.warmup.out.wall}
	if len(si.PassWall) > 0 {
		si.Q1, si.Median, si.Q3 = quartiles(si.PassWall)
		si.Noisy = (si.Q3-si.Q1)/si.Median > 0.1
	}
	for _, p := range run.passes {
		si.Host = append(si.Host, p.host)
		for name, v := range p.out.e2e {
			if si.Samples == nil {
				si.Samples = map[string][]float64{}
			}
			si.Samples[name] = append(si.Samples[name], v)
		}
	}
	outs := run.everyPass()
	if traced != nil {
		outs = append(outs, traced)
	}
	si.OutputSHA256 = outs[0].sha
	for i, o := range outs {
		si.OpsAttempted += o.attempted
		si.OpsFailed += o.failed
		for _, p := range o.problems {
			rep.problem("%s pass %d: %s", run.name, i, p)
		}
		if o.sha != si.OutputSHA256 {
			which := fmt.Sprintf("pass %d", i)
			if o == traced {
				which = "the traced pass"
			}
			rep.problem("%s: %s rendered %s, the first pass %s", run.name, which, o.sha, si.OutputSHA256)
		}
	}
	rep.res.Attempted += si.OpsAttempted
	rep.res.Failed += si.OpsFailed
	if si.OpsFailed > 0 {
		rep.res.Correct = false
	}
	rep.info.Sections = append(rep.info.Sections, si)
}

// runWorkload measures one workload in this process.
func runWorkload(workload string, seed int64, pl plan, trace bool, spansPath string) (*report, error) {
	sf, err := surfacesFor(workload, seed, pl.full, pl.ref)
	if err != nil {
		return nil, err
	}
	rep := &report{
		res: result{Correct: true, Metrics: map[string]value{}},
		info: info{
			Workload: workload, Seed: seed, Seconds: int(pl.budget / time.Second), Trace: trace,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(),
		},
	}
	begin := sampleHost()
	if trace {
		err = rep.traced(sf, seed, pl, spansPath)
	} else {
		err = rep.untraced(sf, pl)
	}
	if err != nil {
		return nil, err
	}
	whole := begin.until(sampleHost())
	rep.info.StealFrac, rep.info.WallS = whole.Steal, whole.Wall
	if trace {
		rep.res.Metrics["steal_frac"] = value{whole.Steal, "ratio"}
	}
	for _, s := range rep.info.Sections {
		rep.info.Noisy = rep.info.Noisy || s.Noisy
	}
	return rep, nil
}

// untraced measures the end-to-end metrics: the workload's own section
// for most of the time, peak RSS read before anything else has touched
// the heap, then the reference slices.
func (rep *report) untraced(sf surfaces, pl plan) error {
	refBudget := time.Duration(float64(pl.budget) * refShare)
	native, err := measure(sf.native, pl.budget-time.Duration(len(sf.refs))*refBudget, pl.minPasses, pl.maxPasses)
	if err != nil {
		return err
	}
	rss := peakRSSMB()
	rep.absorb(native, nil)
	runs := []*sectionRun{native}
	setup := median(native.setups)
	for _, sec := range sf.refs {
		r, err := measure(sec, refBudget, pl.minPasses, pl.maxPasses)
		if err != nil {
			return err
		}
		rep.absorb(r, nil)
		runs = append(runs, r)
		setup += median(r.setups)
	}

	samples := map[string][]float64{
		"setup_s":     {setup},
		"pass_wall_s": native.walls(),
		"peak_rss_mb": {rss},
	}
	for _, r := range runs {
		for _, names := range [][]string{fleetMetrics, serviceMetrics} {
			for _, name := range names {
				if xs := r.samples(name); len(xs) > 0 {
					samples[name] = xs
				}
			}
		}
	}
	distil := func(m metric) float64 {
		v := betterHalf(samples[m.Name], m.Better == "lower")
		if math.IsNaN(v) || v == 0 {
			rep.res.Correct = false
			rep.info.Unmeasured = append(rep.info.Unmeasured, m.Name)
			return 0
		}
		return v
	}
	for _, m := range endToEnd {
		rep.res.Metrics[m.Name] = value{distil(m), m.Unit}
	}
	rep.info.Ungated = map[string]value{}
	for _, m := range ungated {
		if v := betterHalf(samples[m.Name], m.Better == "lower"); !math.IsNaN(v) {
			rep.info.Ungated[m.Name] = value{v, m.Unit}
		}
	}
	return nil
}

// timerCost is what an empty timed stretch reads: the part of the two
// clock reads that falls between them.
func timerCost() time.Duration {
	const n = 200000
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += time.Since(time.Now())
	}
	return sum / n
}

// traced measures the per-layer metrics: a few untraced passes of the
// workload's own section as the baseline, one traced pass of it, one
// traced pass of a reference slice of each other surface, and the
// replay probes.
func (rep *report) traced(sf surfaces, seed int64, pl plan, spansPath string) error {
	tr := newTracer()
	timer := timerCost()
	root := tr.begin("run", -1, -1)
	layers := map[string]float64{}
	for i, sec := range append(append([]section{sf.native}, sf.refs...), sf.traceOnly...) {
		passes := 0
		if i == 0 {
			passes = pl.baselinePasses
		}
		base, err := measure(sec, 0, passes, passes)
		if err != nil {
			return err
		}
		id := tr.begin("pass."+sec.name, root, i)
		_, rec, err := onePass(sec, &traceCtx{tr: tr, parent: id, pass: i, timer: timer})
		tr.end(id)
		if err != nil {
			return err
		}
		rep.absorb(base, rec.out)
		for k, v := range rec.out.layer {
			layers[k] = v
		}
		if i == 0 {
			layers["trace_overhead_frac"] = rec.out.wall/median(base.walls()) - 1
		}
	}
	probes, err := runProbes(seed, pl.probeBatch)
	if err != nil {
		return err
	}
	tr.end(root)
	for k, v := range probes {
		layers[k] = v
	}
	for _, m := range perLayer {
		rep.res.Metrics[m.Name] = value{layers[m.Name], m.Unit}
	}
	rep.info.SelfS = selfByName(tr.spans)
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}

// print writes the human-readable metrics, the info line and the
// result line.
func (rep *report) print(w io.Writer) error {
	names := make([]string, 0, len(rep.res.Metrics))
	for n := range rep.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s seed %d trace %v\n", rep.info.Workload, rep.info.Seed, rep.info.Trace)
	for _, n := range names {
		v := rep.res.Metrics[n]
		fmt.Fprintf(w, "  %-44s %16.6g %s\n", n, v.Value, v.Unit)
	}
	for n, v := range rep.info.Ungated {
		fmt.Fprintf(w, "  %-44s %16.6g %s (ungated)\n", n, v.Value, v.Unit)
	}
	for _, p := range rep.info.Problems {
		fmt.Fprintf(w, "  PROBLEM %s\n", p)
	}
	for _, n := range rep.info.Unmeasured {
		fmt.Fprintf(w, "  PROBLEM end-to-end metric %s was not measured\n", n)
	}
	infoLine, err := json.Marshal(rep.info)
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(rep.res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "info %s\n%s\n", infoLine, resLine)
	return err
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to measure in this process, or \"all\" for one child process each")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", defaultSeconds, "how long one run measures")
	trace := fs.Int("trace", -1, "0 measures the end-to-end metrics, 1 the per-layer metrics; unset means 0, or both under -workload all")
	aa := fs.Bool("aa", false, "run the untraced set twice and fail if any end-to-end metric disagrees beyond its bound")
	runs := fs.Int("runs", 1, "with all or -aa: runs per workload and set, on consecutive seeds")
	spans := fs.String("spans", "", "with -trace 1: write every span to this file as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *runs < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds and -runs must be at least 1, and there are no positional arguments")
		return 2
	}
	if *workload == "all" || *aa {
		return runAll(*seed, *seconds, *trace, *runs, *aa, stdout, stderr)
	}
	rep, err := runWorkload(*workload, *seed, defaultPlan(*seconds), *trace == 1, *spans)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *workload, err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if !rep.res.Correct {
		return 1
	}
	return 0
}
