// Command reproduce regenerates the paper's tables and figures.
//
// Usage:
//
//	reproduce [-seed N] [-parallel N] [-csv DIR] [-chart] [ids...]
//
// With no ids, every experiment runs in paper order. Pass experiment
// ids (table1, fig1a, … fig16) to run a subset. -csv writes each
// experiment's charts as CSV files into DIR for external plotting;
// -chart prints compact ASCII charts of the timeline figures.
//
// -parallel controls the worker pool: independent experiments (and
// independent trials within an experiment) execute across that many
// goroutines, with per-trial seeds fixed by the trial index and
// results assembled in paper order, so the output is byte-identical
// for every -parallel value, including 1 (serial). When the run ends,
// one line on stderr reports the experiments run, their wall time and
// cpu/wall — how much of the pool the run kept busy. Each simulated
// transfer inside an experiment is one session loop (internal/session)
// ticked on the testbed's virtual clock — the same loop that drives
// real FTP transfers on the wall clock — so figures reproduce the
// control flow of a live deployment, not a simulation-only variant.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/profiling"
)

func main() { os.Exit(run()) }

// run holds main's body so profile-flushing defers execute before the
// process exits with a status code.
func run() int {
	seed := flag.Int64("seed", 1, "base random seed for all experiments")
	workers := flag.Int("parallel", parallel.Workers(), "worker-pool width for independent experiments and trials (1 = serial)")
	csvDir := flag.String("csv", "", "directory to write chart CSVs into")
	svgDir := flag.String("svg", "", "directory to write SVG charts into")
	chart := flag.Bool("chart", false, "print ASCII charts for timeline figures")
	list := flag.Bool("list", false, "list experiment ids and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		}
	}()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-8s %s\n", r.ID, r.Name)
		}
		return 0
	}

	runners := experiments.All()
	if ids := flag.Args(); len(ids) > 0 {
		runners = runners[:0]
		for _, id := range ids {
			r, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "reproduce: unknown experiment %q (try -list)\n", id)
				return 2
			}
			runners = append(runners, r)
		}
	}

	for _, dir := range []string{*csvDir, *svgDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
			return 1
		}
	}

	// Worker-pool width for trials/sweep points *within* each
	// experiment; experiments.Run spreads whole experiments over the
	// same width.
	parallel.SetWorkers(*workers)

	start, cpu0 := time.Now(), profiling.CPUSeconds()
	failed := 0
	for _, out := range experiments.Run(runners, *seed, *workers) {
		fmt.Printf("running %s (%s)...\n", out.Runner.ID, out.Runner.Name)
		if out.Err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %s: %v\n", out.Runner.ID, out.Err)
			failed++
			continue
		}
		res := out.Result
		if err := res.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %s: %v\n", res.ID, err)
			failed++
			continue
		}
		chartNames := make([]string, 0, len(res.Charts))
		for name := range res.Charts {
			chartNames = append(chartNames, name)
		}
		sort.Strings(chartNames)
		for _, name := range chartNames {
			ts := res.Charts[name]
			if *chart {
				fmt.Printf("-- %s/%s --\n%s", res.ID, name, ts.ASCIIChart(72, 12))
			}
			if *csvDir != "" {
				path := filepath.Join(*csvDir, fmt.Sprintf("%s-%s.csv", res.ID, name))
				if err := writeFile(path, ts.WriteCSV); err != nil {
					fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
					failed++
				}
			}
			if *svgDir != "" {
				path := filepath.Join(*svgDir, fmt.Sprintf("%s-%s.svg", res.ID, name))
				if err := writeFile(path, func(w io.Writer) error {
					return ts.WriteSVG(w, 720, 320, fmt.Sprintf("%s %s", res.ID, name))
				}); err != nil {
					fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
					failed++
				}
			}
		}
		fmt.Println()
	}
	wall := time.Since(start).Seconds()
	fmt.Fprintf(os.Stderr, "reproduce: %d experiments in %.2f s wall, cpu/wall %.2f\n",
		len(runners), wall, (profiling.CPUSeconds()-cpu0)/wall)
	if failed > 0 {
		return 1
	}
	return 0
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
