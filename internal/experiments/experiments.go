// Package experiments reproduces every table and figure of the paper's
// evaluation (§2, §3.1, §4). Each Fig*/Table* function runs the
// corresponding experiment end-to-end on the simulated testbeds and
// returns a Result whose rows mirror what the paper plots;
// cmd/reproduce prints them as CLI reports. Absolute numbers come from
// our simulator, so the comparisons of interest are the *shapes*: who
// wins, by what rough factor, and where knees and crossovers fall.
// EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/parallel"
	"repro/internal/trace"
)

// Result is one experiment's reproducible output.
type Result struct {
	// ID is the experiment identifier ("fig4", "table1", …).
	ID string
	// Title describes what the paper's figure/table shows.
	Title string
	// Header and Rows form the printable table (Rows[i] aligns with
	// Header).
	Header []string
	Rows   [][]string
	// Charts holds named time series for timeline figures.
	Charts map[string]*trace.TimeSet
	// Notes carries shape observations computed by the experiment
	// (e.g. "loss knee at n=10") for EXPERIMENTS.md.
	Notes []string
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddNote appends a formatted note.
func (r *Result) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Chart registers a named chart, creating the map lazily.
func (r *Result) Chart(name string) *trace.TimeSet {
	if r.Charts == nil {
		r.Charts = make(map[string]*trace.TimeSet)
	}
	ts, ok := r.Charts[name]
	if !ok {
		ts = &trace.TimeSet{}
		r.Charts[name] = ts
	}
	return ts
}

// Render writes the result as an aligned text report.
func (r *Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			width := len(c)
			if i < len(widths) {
				width = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", width, c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if len(r.Header) > 0 {
		if _, err := fmt.Fprintln(w, line(r.Header)); err != nil {
			return err
		}
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// String renders the result to a string.
func (r *Result) String() string {
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		return err.Error()
	}
	return b.String()
}

// Runner is one registered experiment.
type Runner struct {
	ID   string
	Name string
	// Run executes the experiment with the given base seed.
	Run func(seed int64) (*Result, error)
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"table1", "Testbed specifications and probed capacities", Table1},
		{"fig1a", "Impact of concurrency on throughput", Fig1a},
		{"fig1b", "Optimal concurrency across environments", Fig1b},
		{"fig2a", "Globus and HARP single-transfer performance", Fig2a},
		{"fig2b", "HARP unfairness to the first transfer", Fig2b},
		{"fig4", "Throughput and packet loss vs concurrency", Fig4},
		{"fig6a", "Analytic utility curves: linear vs nonlinear regret", Fig6a},
		{"fig6b", "Empirical convergence: linear vs nonlinear regret", Fig6b},
		{"fig6c", "Linear regret under competition", Fig6c},
		{"fig7", "Convergence speed of HC, GD, and BO", Fig7},
		{"fig8", "Hill Climbing with competing transfers", Fig8},
		{"fig9", "Falcon-GD in all four networks", Fig9},
		{"fig10", "Falcon-BO in all four networks", Fig10},
		{"fig11", "Falcon-GD stability under competition", Fig11},
		{"fig12", "Falcon-BO stability under competition", Fig12},
		{"fig13", "Concurrency adaptation on join/leave", Fig13},
		{"fig14", "Falcon vs Globus vs HARP", Fig14},
		{"fig15", "Single- vs multi-parameter optimization", Fig15},
		{"fig16", "Friendliness toward non-Falcon transfers", Fig16},
		{"abl-k", "Ablation: concurrency-regret base K", AblationK},
		{"abl-b", "Ablation: loss-regret coefficient B", AblationB},
		{"abl-interval", "Ablation: sample-transfer duration", AblationInterval},
		{"abl-window", "Ablation: BO observation-window size", AblationWindow},
		{"abl-warmup", "Ablation: measurement warm-up exclusion", AblationWarmup},
		{"abl-bbr", "Ablation: loss-based vs model-based congestion control", AblationBBR},
		{"abl-search", "Ablation: all search algorithms incl. related work", AblationSearch},
		{"abl-noise", "Ablation: measurement-noise sensitivity", AblationNoise},
		{"abl-dynamics", "Ablation: adaptation to background traffic", AblationDynamics},
	}
}

// registry is the lazily-built ID → Runner index behind ByID, so
// repeated lookups (bench helpers, CLI argument parsing) don't rebuild
// and rescan the full runner list.
var (
	registryOnce sync.Once
	registry     map[string]Runner
)

// ByID returns the runner with the given ID, searching All() and the
// registered-but-not-default Extra() runners.
func ByID(id string) (Runner, bool) {
	registryOnce.Do(func() {
		all := All()
		extra := Extra()
		registry = make(map[string]Runner, len(all)+len(extra))
		for _, r := range all {
			registry[r.ID] = r
		}
		for _, r := range extra {
			registry[r.ID] = r
		}
	})
	r, ok := registry[id]
	return r, ok
}

// Outcome is one runner's completed execution.
type Outcome struct {
	Runner Runner
	Result *Result
	Err    error
}

// Run executes the given runners across at most workers goroutines and
// returns their outcomes in input order. Every runner receives the
// same base seed it would receive from a serial loop and builds its
// own engines, so the assembled outcomes are byte-identical to serial
// execution regardless of worker count (workers ≤ 1 runs inline).
func Run(runners []Runner, seed int64, workers int) []Outcome {
	out := make([]Outcome, len(runners))
	parallel.ForEachN(len(runners), workers, func(i int) {
		res, err := runners[i].Run(seed)
		out[i] = Outcome{Runner: runners[i], Result: res, Err: err}
	})
	return out
}

// addRows runs one independent trial per x in xs through parallel.Map,
// each returning its report row, and appends the rows to r in xs order.
func addRows[T any](r *Result, xs []T, trial func(x T) ([]string, error)) error {
	rows, err := parallel.Map(len(xs), func(i int) ([]string, error) { return trial(xs[i]) })
	for _, row := range rows {
		r.AddRow(row...)
	}
	return err
}

// gbps formats a bits/s value in Gbps.
func gbps(bits float64) string { return fmt.Sprintf("%.2f", bits/1e9) }

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.2f%%", f*100) }
