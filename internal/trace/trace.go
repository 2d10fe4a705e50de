// Package trace records and renders time series produced by
// experiments: per-task throughput, concurrency, and loss over time.
// Output targets are CSV (for external plotting) and compact ASCII
// charts (for terminal inspection of figure shapes).
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Point is one time-stamped observation.
type Point struct {
	Time  float64
	Value float64
}

// Series is a named, time-ordered sequence of points.
type Series struct {
	Name   string
	Points []Point
}

// Append adds an observation. Points must be appended in
// non-decreasing time order; Append panics otherwise, as out-of-order
// recording indicates a scheduling bug. A NaN time has no order, so it
// panics too, first point included: every reader that searches or
// scans by time (MeanBetween, Between) relies on the order.
func (s *Series) Append(t, v float64) {
	if n := len(s.Points); math.IsNaN(t) || n > 0 && t < s.Points[n-1].Time {
		s.misorderedAppend(t)
	}
	s.Points = append(s.Points, Point{Time: t, Value: v})
}

// misorderedAppend panics naming the time Append refused.
//
//go:noinline
func (s *Series) misorderedAppend(t float64) {
	if n := len(s.Points); n > 0 {
		panic(fmt.Sprintf("trace: out-of-order append to %q: %v after %v", s.Name, t, s.Points[n-1].Time))
	}
	panic(fmt.Sprintf("trace: out-of-order append to %q: %v as the first point", s.Name, t))
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Points) }

// Grow ensures capacity for at least n more points without further
// reallocation. Recorders that know their horizon (a scheduler run of
// fixed length and sampling cadence) call it once so the append path
// stays allocation-free.
func (s *Series) Grow(n int) {
	if n <= 0 || cap(s.Points)-len(s.Points) >= n {
		return
	}
	pts := make([]Point, len(s.Points), len(s.Points)+n)
	copy(pts, s.Points)
	s.Points = pts
}

// Values returns the values as a slice.
func (s *Series) Values() []float64 {
	vs := make([]float64, len(s.Points))
	for i, p := range s.Points {
		vs[i] = p.Value
	}
	return vs
}

// Mean returns the time-unweighted mean value, or 0 when empty.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.Value
	}
	return sum / float64(len(s.Points))
}

// MeanAfter returns the mean of values at times ≥ t0 — used to measure
// post-convergence throughput. Returns 0 when no points qualify.
func (s *Series) MeanAfter(t0 float64) float64 {
	sum, n := 0.0, 0
	for _, p := range s.Points {
		if p.Time >= t0 {
			sum += p.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Between returns the sub-series with t0 ≤ time < t1.
func (s *Series) Between(t0, t1 float64) *Series {
	out := &Series{Name: s.Name}
	for _, p := range s.Points {
		if p.Time >= t0 && p.Time < t1 {
			out.Points = append(out.Points, p)
		}
	}
	return out
}

// MeanBetween returns Between(t0, t1).Mean() without building the
// sub-series: it finds the window's first point by binary search
// (Append keeps points time-ordered) and sums the window in place, in
// the same order, so the result is bitwise equal.
func (s *Series) MeanBetween(t0, t1 float64) float64 {
	pts := s.Points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Time >= t0 })
	sum, n := 0.0, 0
	for ; i < len(pts) && pts[i].Time < t1; i++ {
		sum += pts[i].Value
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TimeSet is a collection of named series sharing a time axis.
type TimeSet struct {
	Series []*Series

	// index maps name → series so Get/Lookup stay O(1) at fleet scale
	// (tens of thousands of series). Small sets — the common
	// few-task experiment — stay on the linear scan and never pay the
	// map allocations; the index is built when Get or Adopt grows the
	// set past smallSetScan, and rebuilt lazily whenever the exported
	// Series slice was mutated directly (struct literals, hand
	// appends). Series remains the source of truth.
	index map[string]*Series
}

// smallSetScan is the series count below which a TimeSet keeps linear
// lookups instead of building its name index.
const smallSetScan = 16

// Reserve pre-sizes the series slice for n additional series, so
// recorders that know their fleet size up front keep the creation path
// free of incremental growth. The name index is deliberately left to
// Get's own threshold: index state stays a pure function of the
// series-creation sequence, so runs that build identical series
// compare deeply equal however the recorder was sized.
func (ts *TimeSet) Reserve(n int) {
	if cap(ts.Series)-len(ts.Series) < n {
		grown := make([]*Series, len(ts.Series), len(ts.Series)+n)
		copy(grown, ts.Series)
		ts.Series = grown
	}
}

// buildIndex (re)builds the name index with room for n series.
// Duplicate names resolve to the first occurrence, as the linear scan
// does.
func (ts *TimeSet) buildIndex(n int) {
	ts.index = make(map[string]*Series, n)
	for _, s := range ts.Series {
		if _, ok := ts.index[s.Name]; !ok {
			ts.index[s.Name] = s
		}
	}
}

// lookup returns the named series or nil, via the index when one
// exists (syncing it first if Series was modified behind its back) and
// the linear scan otherwise.
func (ts *TimeSet) lookup(name string) *Series {
	if ts.index == nil {
		for _, s := range ts.Series {
			if s.Name == name {
				return s
			}
		}
		return nil
	}
	if len(ts.index) != len(ts.Series) {
		ts.buildIndex(len(ts.Series))
	}
	return ts.index[name]
}

// Get returns the series with the given name, creating it if needed.
func (ts *TimeSet) Get(name string) *Series {
	if s := ts.lookup(name); s != nil {
		return s
	}
	s := &Series{Name: name}
	ts.Adopt(s)
	return s
}

// Adopt appends existing series to the set — a shard merge moving
// whole timelines — and indexes them by Get's own rule: a set past
// smallSetScan series carries the name index, so adopted series
// resolve without a scan and the set compares deeply equal to one Get
// built in the same order. A name the set already holds keeps
// resolving to its first series.
func (ts *TimeSet) Adopt(ss ...*Series) {
	ts.Series = append(ts.Series, ss...)
	if ts.index == nil {
		if len(ts.Series) > smallSetScan {
			ts.buildIndex(2 * len(ts.Series))
		}
		return
	}
	for _, s := range ss {
		if _, ok := ts.index[s.Name]; !ok {
			ts.index[s.Name] = s
		}
	}
}

// Append adds an observation to the named series, creating it if
// needed — the one-line form event consumers use when recording.
func (ts *TimeSet) Append(name string, t, v float64) {
	ts.Get(name).Append(t, v)
}

// Lookup returns the series with the given name, or nil.
func (ts *TimeSet) Lookup(name string) *Series {
	return ts.lookup(name)
}

// Names returns the sorted series names.
func (ts *TimeSet) Names() []string {
	names := make([]string, len(ts.Series))
	for i, s := range ts.Series {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// WriteCSV emits the set as CSV with a shared time column. Series are
// aligned by exact timestamps; missing values are left empty.
func (ts *TimeSet) WriteCSV(w io.Writer) error {
	names := ts.Names()
	times := map[float64]bool{}
	bySeries := make(map[string]map[float64]float64, len(names))
	for _, s := range ts.Series {
		m := make(map[float64]float64, len(s.Points))
		for _, p := range s.Points {
			times[p.Time] = true
			m[p.Time] = p.Value
		}
		bySeries[s.Name] = m
	}
	sorted := make([]float64, 0, len(times))
	for t := range times {
		sorted = append(sorted, t)
	}
	sort.Float64s(sorted)

	if _, err := fmt.Fprintf(w, "time,%s\n", strings.Join(names, ",")); err != nil {
		return err
	}
	for _, t := range sorted {
		row := make([]string, 0, len(names)+1)
		row = append(row, fmt.Sprintf("%g", t))
		for _, n := range names {
			if v, ok := bySeries[n][t]; ok {
				row = append(row, fmt.Sprintf("%g", v))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// ASCIIChart renders the series as a fixed-size ASCII chart, one
// letter per series (a, b, c, …), with min/max annotations. Intended
// for eyeballing figure shapes in terminal output.
func (ts *TimeSet) ASCIIChart(width, height int) string {
	if width < 10 {
		width = 10
	}
	if height < 4 {
		height = 4
	}
	minT, maxT := math.Inf(1), math.Inf(-1)
	minV, maxV := math.Inf(1), math.Inf(-1)
	total := 0
	for _, s := range ts.Series {
		for _, p := range s.Points {
			minT, maxT = math.Min(minT, p.Time), math.Max(maxT, p.Time)
			minV, maxV = math.Min(minV, p.Value), math.Max(maxV, p.Value)
			total++
		}
	}
	if total == 0 {
		return "(empty chart)\n"
	}
	if maxT == minT {
		maxT = minT + 1
	}
	if maxV == minV {
		maxV = minV + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range ts.Series {
		mark := byte('a' + si%26)
		for _, p := range s.Points {
			x := int((p.Time - minT) / (maxT - minT) * float64(width-1))
			y := int((p.Value - minV) / (maxV - minV) * float64(height-1))
			row := height - 1 - y
			grid[row][x] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%.4g\n", maxV)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%.4g  t=[%.4g, %.4g]\n", minV, minT, maxT)
	for si, s := range ts.Series {
		fmt.Fprintf(&b, "  %c = %s\n", 'a'+si%26, s.Name)
	}
	return b.String()
}
