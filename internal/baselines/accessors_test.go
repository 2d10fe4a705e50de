package baselines

import (
	"math"

	"repro/internal/stats"
)

// PerProc estimates single-process throughput: the mean logged
// throughput at the lowest concurrency, scaled down by that
// concurrency.
func (h *History) PerProc() float64 {
	minCC := math.MaxInt
	for _, e := range h.Entries {
		if e.Concurrency < minCC {
			minCC = e.Concurrency
		}
	}
	var vals []float64
	for _, e := range h.Entries {
		if e.Concurrency == minCC {
			vals = append(vals, e.Throughput/float64(e.Concurrency))
		}
	}
	return stats.Mean(vals)
}
