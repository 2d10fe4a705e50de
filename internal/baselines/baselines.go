// Package baselines implements the two state-of-the-art comparators of
// the paper's evaluation: the Globus transfer service's fixed heuristic
// [9] and HARP's historical-analysis model [10, 11]. Both satisfy
// testbed.Controller, so experiments can race them against Falcon
// agents on identical simulated testbeds (Figures 2, 14, 16).
package baselines

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/transfer"
)

// Globus reproduces the Globus heuristic: a fixed (concurrency,
// parallelism, pipelining) triple chosen once from dataset statistics
// and never adapted. The rules follow the published heuristic's spirit:
// concurrency stays conservative (2) to avoid congestion, parallelism
// rises for large files, pipelining rises for small files. The paper
// observes exactly this in §4.5: "it selects the concurrency value of
// 2".
type Globus struct {
	setting transfer.Setting
}

// NewGlobus derives the fixed setting from the dataset's mean file
// size. It returns an error for a nil or empty dataset.
func NewGlobus(ds *dataset.Dataset) (*Globus, error) {
	if ds == nil || ds.Count() == 0 {
		return nil, fmt.Errorf("baselines: Globus needs a non-empty dataset")
	}
	mean := ds.MeanFileSize()
	var s transfer.Setting
	switch {
	case mean < 50*dataset.MiB: // lots of small files
		s = transfer.Setting{Concurrency: 2, Parallelism: 2, Pipelining: 20}
	case mean < 250*dataset.MiB:
		s = transfer.Setting{Concurrency: 2, Parallelism: 4, Pipelining: 5}
	default: // large files
		s = transfer.Setting{Concurrency: 2, Parallelism: 8, Pipelining: 1}
	}
	return &Globus{setting: s}, nil
}

// Setting returns the fixed setting.
func (g *Globus) Setting() transfer.Setting { return g.setting }

// Decide implements testbed.Controller: Globus never adapts.
func (g *Globus) Decide(transfer.Sample) transfer.Setting { return g.setting }

// LogEntry is one historical transfer observation HARP trains on.
type LogEntry struct {
	// Concurrency used during the logged transfer.
	Concurrency int
	// Throughput achieved, in bits/s.
	Throughput float64
}

// History is a set of historical transfer logs from one network.
type History struct {
	Entries []LogEntry
}

// Validate checks the log set.
func (h *History) Validate() error {
	if len(h.Entries) == 0 {
		return fmt.Errorf("baselines: empty history")
	}
	for i, e := range h.Entries {
		if e.Concurrency < 1 {
			return fmt.Errorf("baselines: history entry %d has concurrency %d", i, e.Concurrency)
		}
		if e.Throughput <= 0 {
			return fmt.Errorf("baselines: history entry %d has throughput %v", i, e.Throughput)
		}
	}
	return nil
}

// Cap returns the highest throughput in the logs — HARP's belief about
// the network's capacity.
func (h *History) Cap() float64 {
	best := 0.0
	for _, e := range h.Entries {
		if e.Throughput > best {
			best = e.Throughput
		}
	}
	return best
}

// OptimalConcurrency returns the concurrency HARP's view of the logs
// considers optimal: the smallest logged concurrency whose mean
// throughput is within 5 % of the logged capacity. (HARP's published
// model is a regression over (cc, p, q); against the saturating
// throughput curves all these testbeds exhibit, the regression's argmax
// reduces to exactly this knee.)
func (h *History) OptimalConcurrency() int {
	byCC := map[int][]float64{}
	for _, e := range h.Entries {
		byCC[e.Concurrency] = append(byCC[e.Concurrency], e.Throughput)
	}
	ccs := make([]int, 0, len(byCC))
	for cc := range byCC {
		ccs = append(ccs, cc)
	}
	sort.Ints(ccs)
	best := 0.0
	means := make([]float64, len(ccs))
	for i, cc := range ccs {
		means[i] = stats.Mean(byCC[cc])
		if means[i] > best {
			best = means[i]
		}
	}
	for i, m := range means {
		if m >= 0.95*best {
			return ccs[i]
		}
	}
	return ccs[len(ccs)-1]
}

// HARP reproduces the historical-analysis-plus-real-time-probing model:
// it opens at the historically optimal concurrency, then after one
// probe epoch recalibrates greedily — it measures the per-process
// throughput it is *currently* getting and picks the concurrency its
// model says maximises its own throughput: ceil(historicalCap /
// observedPerProc). Two consequences the paper demonstrates:
//
//   - Trained in the wrong network, its capacity belief caps its
//     performance (Figure 2a: ≈50 % of maximum).
//   - As a late-comer it sees depressed per-process throughput (the
//     incumbent holds a share) and compensates with *more* concurrency,
//     seizing an unfair share (Figure 2b) — precisely the throughput-
//     greedy behaviour a concave utility would forbid.
type HARP struct {
	// MaxN bounds the concurrency HARP will request.
	MaxN int
	// Recalibrate is the number of epochs between greedy
	// recalibrations; HARP tunes after the first probe and then every
	// Recalibrate epochs (0 disables further recalibration, matching
	// HARP's tune-once-at-start description in §2).
	Recalibrate int

	hist    *History
	epoch   int
	setting transfer.Setting
}

// NewHARP builds a HARP controller from historical logs. It returns an
// error for invalid logs or maxN < 1.
func NewHARP(hist *History, maxN int) (*HARP, error) {
	if maxN < 1 {
		return nil, fmt.Errorf("baselines: HARP maxN %d must be ≥ 1", maxN)
	}
	if hist == nil {
		return nil, fmt.Errorf("baselines: HARP needs history")
	}
	if err := hist.Validate(); err != nil {
		return nil, err
	}
	start := hist.OptimalConcurrency()
	if start > maxN {
		start = maxN
	}
	return &HARP{
		MaxN:        maxN,
		Recalibrate: 6,
		hist:        hist,
		setting:     transfer.Setting{Concurrency: start, Parallelism: 1, Pipelining: 1},
	}, nil
}

// Setting returns HARP's current setting.
func (h *HARP) Setting() transfer.Setting { return h.setting }

// Decide implements testbed.Controller.
func (h *HARP) Decide(s transfer.Sample) transfer.Setting {
	h.epoch++
	recal := h.epoch == 1 || (h.Recalibrate > 0 && h.epoch%h.Recalibrate == 0)
	if !recal {
		return h.setting
	}
	perProc := s.PerConnThroughput()
	if perProc <= 0 {
		return h.setting
	}
	want := int(math.Ceil(h.hist.Cap() / perProc))
	if want < 1 {
		want = 1
	}
	if want > h.MaxN {
		want = h.MaxN
	}
	h.setting.Concurrency = want
	return h.setting
}

// SyntheticHistory fabricates logs for a network whose aggregate
// throughput saturates at cap with perProc per process — the shape
// every testbed in this repository exhibits. Used to train HARP "in a
// 10 Gbps network" (Figure 2a) without running a real collection
// campaign, which the paper notes takes weeks to months.
func SyntheticHistory(perProc, cap float64, maxN int) *History {
	h := &History{}
	thr := func(n int) float64 {
		t := perProc * float64(n)
		if t > cap {
			return cap
		}
		return t
	}
	for n := 1; n <= maxN; n++ {
		h.Entries = append(h.Entries, LogEntry{Concurrency: n, Throughput: thr(n)})
	}
	return h
}
