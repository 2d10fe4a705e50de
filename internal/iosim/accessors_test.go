package iosim

import "math"

// SaturationThreads returns the minimum number of threads needed to
// reach AggregateCap assuming each thread achieves PerProcCap — the
// "optimal concurrency" of a transfer bottlenecked by this store.
func (s Store) SaturationThreads() int {
	return int(math.Ceil(s.AggregateCap / s.PerProcCap))
}
