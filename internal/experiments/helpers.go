package experiments

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/testbed"
	"repro/internal/trace"
	"repro/internal/transfer"
)

// endlessTask builds a task over a dataset big enough not to drain
// within experiment horizons (timeline figures end by the clock, not by
// completion).
func endlessTask(id string, n int) *transfer.Task {
	return mustTask(id, dataset.Uniform(id, 20000, int64(dataset.GB)),
		transfer.Setting{Concurrency: n, Parallelism: 1, Pipelining: 1})
}

// mustTask wraps transfer.NewTask for internally-constructed inputs.
func mustTask(id string, ds *dataset.Dataset, s transfer.Setting) *transfer.Task {
	t, err := transfer.NewTask(id, ds, s)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return t
}

// runScenario runs a set of participants on a testbed and returns the
// timeline. Each participant runs as one session loop on the engine's
// virtual clock; the timeline is recorded by consuming the sessions'
// event streams (testbed.Timeline.Sink).
func runScenario(cfg testbed.Config, seed int64, horizon float64, parts ...testbed.Participant) (*testbed.Timeline, error) {
	eng, err := testbed.NewEngine(cfg, seed)
	if err != nil {
		return nil, err
	}
	s := testbed.NewScheduler(eng, 1)
	for _, p := range parts {
		if err := s.Add(p); err != nil {
			return nil, err
		}
	}
	return s.Run(horizon, 0.25), nil
}

// copyChart copies a timeline TimeSet series into a Result chart under
// the given name.
func copyChart(dst *trace.TimeSet, src *trace.TimeSet) {
	if src == nil {
		return
	}
	for _, s := range src.Series {
		d := dst.Get(s.Name)
		d.Points = append(d.Points, s.Points...)
	}
}
