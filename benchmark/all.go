package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// child runs one workload in a process of its own, so that its peak RSS
// is that workload's and nothing else's, echoes what it prints, and
// returns the result object from its last line.
func child(workload string, seed int64, seconds, trace int, stdout, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(stdout, &out)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var last []byte
	for sc := bufio.NewScanner(&out); sc.Scan(); {
		last = append(last[:0], sc.Bytes()...)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	if runErr != nil || !res.Correct {
		return &res, fmt.Errorf("%s seed %d: run failed its checks", workload, seed)
	}
	return &res, nil
}

// set is one full set of untraced runs: per workload and end-to-end
// metric, the value of every run.
type set map[string]map[string][]float64

func runSet(seed int64, seconds, runs int, stdout, stderr io.Writer) (set, error) {
	out := set{}
	for _, w := range workloadNames {
		out[w] = map[string][]float64{}
		for r := 0; r < runs; r++ {
			res, err := child(w, seed+int64(r), seconds, 0, stdout, stderr)
			if err != nil {
				return nil, err
			}
			for name, v := range res.Metrics {
				out[w][name] = append(out[w][name], v.Value)
			}
		}
	}
	return out, nil
}

// worse is how much worse b is than a as a share of a, in the metric's
// own direction; negative when b is better.
func worse(m metric, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAll measures every workload in child processes. Without -aa it
// prints each workload's metrics, untraced and traced unless trace
// picks one. With -aa it runs the untraced set twice and compares.
func runAll(seed int64, seconds, trace, runs int, aa bool, stdout, stderr io.Writer) int {
	if !aa {
		for _, w := range workloadNames {
			for r := 0; r < runs; r++ {
				for t := 0; t <= 1; t++ {
					if trace >= 0 && t != trace {
						continue
					}
					if _, err := child(w, seed+int64(r), seconds, t, stdout, stderr); err != nil {
						fmt.Fprintf(stderr, "benchmark: %v\n", err)
						return 1
					}
				}
			}
		}
		return 0
	}

	var sets [2]set
	for i := range sets {
		var err error
		if sets[i], err = runSet(seed, seconds, runs, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	bad := 0
	fmt.Fprintf(stdout, "\nA/A: two sets of %d run(s) per workload\n", runs)
	fmt.Fprintf(stdout, "%-13s %-18s %14s %14s %9s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound")
	for _, w := range workloadNames {
		for _, m := range endToEnd {
			a, b := sets[0][w][m.Name], sets[1][w][m.Name]
			ma, mb := median(a), median(b)
			diff := worse(m, ma, mb)
			verdict := ""
			// Either order of the two sets is a parent and a change.
			if diff > m.Bound || worse(m, mb, ma) > m.Bound {
				verdict = "  DISAGREE"
				bad++
			}
			// The driver does not hold set-up time's spread to its bound.
			if runs >= 4 && m.Name != "setup_s" && (spread(a) > m.Bound || spread(b) > m.Bound) {
				verdict += "  UNSTEADY"
				bad++
			}
			fmt.Fprintf(stdout, "%-13s %-18s %14.6g %14.6g %+8.2f%% %7.2f%% %7.2f%% %5.0f%%%s\n",
				w, m.Name, ma, mb, 100*diff, 100*spread(a), 100*spread(b), 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "benchmark: %d end-to-end metrics disagree between the two sets beyond their bounds\n", bad)
		return 1
	}
	return 0
}
