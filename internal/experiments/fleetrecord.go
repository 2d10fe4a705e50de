package experiments

import (
	"fmt"

	"repro/internal/stats"
)

// fleetStats is the distilled measurement a fleet run's metrics are
// rendered from, produced by the streaming recorder (and, bitwise
// identically, by the tests' full-timeline oracle): the fleet-wide
// convergence time and each session's equilibrium mean throughput
// (Gbps, session index order).
type fleetStats struct {
	converged float64
	eqMeans   []float64
}

// fleetRecorder is the testbed.Recorder behind every fleet run.
// Instead of materializing per-session throughput series —
// O(sessions × samples) memory, ~GBs at a million sessions — it folds
// every recording point into per-session per-window (sum, count)
// accumulators: the overlapping convergence windows slid from the last
// join, plus the equilibrium quarter. That is constant space per
// session per window, and because each window's sum accumulates in the
// same time order a full timeline's MeanBetween(t0, t1) sums, the
// resulting means — and every metric derived from them — are bitwise
// identical to ones taken over full timelines.
//
// Concurrency: Attach and Record are called from shard worker
// goroutines, never for the same session from two goroutines. The
// handle is parsed from the session ID, and every write lands in the
// session's own slots, so there is no shared mutable state.
type fleetRecorder struct {
	sessions int
	slots    int // len(winStart) convergence windows + 1 equilibrium slot

	// winStart is built by the same repeated t += window/2 additions
	// a convergence scan over full timelines performs, and winEnd[j] is
	// the single add winStart[j]+window it passes to MeanBetween — so
	// every boundary comparison is bit-identical to that scan's.
	winStart []float64
	winEnd   []float64
	halfWin  float64
	lastJoin float64
	eq0, eq1 float64

	sum []float64 // sessions × slots
	cnt []int32   // sessions × slots
}

// newFleetRecorder sizes the accumulators for a fleet of the given
// shape. Windows replicate the tests' full-timeline oracle
// (fleetStatsFromTimeline): width duration/10, slid from lastJoin in
// half-window steps while they fit the horizon, and the equilibrium
// slot covers [duration·3/4, duration).
func newFleetRecorder(sessions int, duration, lastJoin float64) *fleetRecorder {
	window := duration / 10
	r := &fleetRecorder{
		sessions: sessions,
		halfWin:  window / 2,
		lastJoin: lastJoin,
		eq0:      duration * 3 / 4,
		eq1:      duration,
	}
	for t := lastJoin; t+window <= duration; t += window / 2 {
		r.winStart = append(r.winStart, t)
		r.winEnd = append(r.winEnd, t+window)
	}
	r.slots = len(r.winStart) + 1
	r.sum = make([]float64, sessions*r.slots)
	r.cnt = make([]int32, sessions*r.slots)
	return r
}

// fleetIndex parses the session index out of a fleet ID ("s<index>-…").
func fleetIndex(id string) (int, bool) {
	k := 1
	i := 0
	for ; k < len(id) && id[k] != '-'; k++ {
		c := id[k]
		if c < '0' || c > '9' {
			return 0, false
		}
		i = i*10 + int(c-'0')
	}
	return i, len(id) > 1 && id[0] == 's' && k > 1 && k < len(id)
}

// Attach recovers the session index from its fleet ID, which Fleet has
// checked against the roster.
func (r *fleetRecorder) Attach(id string) int32 {
	i, ok := fleetIndex(id)
	if !ok || i >= r.sessions {
		panic(fmt.Sprintf("experiments: fleet recorder attached to non-fleet session %q", id))
	}
	return int32(i)
}

// Record folds one recording point into every window containing its
// time. Half-overlapping windows mean a point lands in at most two; the
// float-division locator only narrows the candidates, membership itself
// is decided against the exact winStart/winEnd bounds.
func (r *fleetRecorder) Record(h int32, t, gbps float64) {
	base := int(h) * r.slots
	if n := len(r.winStart); n > 0 && t >= r.winStart[0] {
		j0 := int((t - r.lastJoin) / r.halfWin)
		lo, hi := j0-1, j0+1
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		for j := lo; j <= hi; j++ {
			if t >= r.winStart[j] && t < r.winEnd[j] {
				r.sum[base+j] += gbps
				r.cnt[base+j]++
			}
		}
	}
	if t >= r.eq0 && t < r.eq1 {
		r.sum[base+r.slots-1] += gbps
		r.cnt[base+r.slots-1]++
	}
}

// stats distills the accumulators into fleetStats, replaying the
// full-timeline oracle's arithmetic: per-window per-session means in
// session index order, first window whose Jain index reaches 0.9.
func (r *fleetRecorder) stats() *fleetStats {
	mean := func(i, j int) float64 {
		c := r.cnt[i*r.slots+j]
		if c == 0 {
			return 0
		}
		return r.sum[i*r.slots+j] / float64(c)
	}
	converged := -1.0
	means := make([]float64, r.sessions)
	for j := range r.winStart {
		for i := 0; i < r.sessions; i++ {
			means[i] = mean(i, j)
		}
		if stats.JainIndex(means) >= 0.9 {
			converged = r.winStart[j]
			break
		}
	}
	eqMeans := make([]float64, r.sessions)
	for i := range eqMeans {
		eqMeans[i] = mean(i, r.slots-1)
	}
	return &fleetStats{converged: converged, eqMeans: eqMeans}
}
