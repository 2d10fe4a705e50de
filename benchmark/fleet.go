package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/testbed"
	"repro/internal/trace"
	"repro/internal/transfer"
)

// fleetShape selects one of the two generated fleet documents.
type fleetShape int

const (
	// shapeSteady runs one shard through Run.Execute with full
	// recording into trace.TimeSet.
	shapeSteady fleetShape = iota
	// shapeChurn runs four shards through testbed.ShardSet with
	// aggregate recording into the benchmark's own Recorder.
	shapeChurn
)

// windowShare is the part of the horizon, at its end, over which the
// equilibrium metrics are taken.
const windowShare = 0.1

// watchBelow is the roster size under which a multi-shard fleet's
// warm-up pass may watch the event stream too.
const watchBelow = 2000

// fleetSection is one generated fleet document, parsed, built and run
// to its horizon. The first pass prepared (the warm-up) also watches
// the session event stream for joins and errors when the fleet is a
// single shard, where events arrive live and cost nothing. A
// multi-shard event sink buffers and merges every event, which at 10k
// sessions more than doubles the heap, so there only small fleets are
// watched and the full-size churn fleet checks joins through its
// recorder.
func fleetSection(shape fleetShape, seed int64, sessions int, duration float64) section {
	first := true
	return section{name: "fleet", prepare: func() (passFunc, func(), error) {
		gen := genFleetSteady
		if shape == shapeChurn {
			gen = genFleetChurn
		}
		doc, err := scenario.Parse(mustJSON(gen(seed, sessions, duration)))
		if err != nil {
			return nil, nil, err
		}
		run, err := doc.Build()
		if err != nil {
			return nil, nil, err
		}
		watch := first && (len(run.Shards) == 1 || len(run.AgentIDs) < watchBelow)
		first = false
		return func(tc *traceCtx) (*outcome, error) { return fleetPass(shape, run, watch, tc) }, func() {}, nil
	}}
}

// decideStats accumulates one algorithm's Decide calls on one shard.
// A shard steps on one goroutine, so no locking is needed.
type decideStats struct {
	calls int
	busy  time.Duration
	// durs keeps every call's duration when a percentile is wanted.
	durs []int32
	keep bool
}

// timedController times the agent it wraps. session.Decider is the
// whole contract the scheduler holds a controller to, so the wrapper is
// invisible to the run.
type timedController struct {
	inner testbed.Controller
	st    *decideStats
}

func (c *timedController) Decide(s transfer.Sample) transfer.Setting {
	t0 := time.Now()
	next := c.inner.Decide(s)
	d := time.Since(t0)
	c.st.calls++
	c.st.busy += d
	if c.st.keep {
		if d > math.MaxInt32 {
			d = math.MaxInt32
		}
		c.st.durs = append(c.st.durs, int32(d))
	}
	return next
}

// wrapControllers puts a timedController around every agent of the
// run, accumulating per shard and algorithm.
func wrapControllers(run *scenario.Run) []map[string]*decideStats {
	algoOf := make([]string, 0, len(run.Participants))
	for _, a := range run.Doc.Agents {
		for j := 0; j < a.Count; j++ {
			algoOf = append(algoOf, a.Algorithm)
		}
	}
	stats := make([]map[string]*decideStats, len(run.Shards))
	for k, sh := range run.Shards {
		stats[k] = map[string]*decideStats{}
		for _, idx := range sh.Participants {
			algo := algoOf[idx]
			st := stats[k][algo]
			if st == nil {
				st = &decideStats{keep: algo == "bo"}
				stats[k][algo] = st
			}
			p := &run.Participants[idx]
			p.Controller = &timedController{inner: p.Controller, st: st}
		}
	}
	return stats
}

// aggRecorder is the benchmark's testbed.Recorder: per-session
// whole-run and final-window accumulators in flat slots indexed by
// roster position. Attach only reads a map built beforehand and Record
// touches only its own slot, so shard workers may call both
// concurrently, as the Recorder contract requires.
type aggRecorder struct {
	index  map[string]int32
	slots  []aggSlot
	t0, t1 float64
}

type aggSlot struct {
	attached     bool
	n, winN      int32
	sum, winSum  float64
	firstT, last float64
}

func newAggRecorder(ids []string, t0, t1 float64) *aggRecorder {
	r := &aggRecorder{index: make(map[string]int32, len(ids)), slots: make([]aggSlot, len(ids)), t0: t0, t1: t1}
	for i, id := range ids {
		r.index[id] = int32(i)
	}
	return r
}

func (r *aggRecorder) Attach(id string) int32 {
	h := r.index[id]
	r.slots[h].attached = true
	return h
}

// Record adds one recording point; window membership is t0 ≤ t < t1,
// the half-open interval trace.Series.Between uses, and sums run in
// time order, so a final-window mean is bit-for-bit the mean full
// recording gives.
func (r *aggRecorder) Record(h int32, t, gbps float64) {
	s := &r.slots[h]
	if s.n == 0 {
		s.firstT = t
	}
	s.n++
	s.sum += gbps
	s.last = t
	if t >= r.t0 && t < r.t1 {
		s.winN++
		s.winSum += gbps
	}
}

// windowMeans returns the final-window mean of every session with a
// point in the window, in roster order.
func (r *aggRecorder) windowMeans() []float64 {
	var means []float64
	for i := range r.slots {
		if s := &r.slots[i]; s.winN > 0 {
			means = append(means, s.winSum/float64(s.winN))
		}
	}
	return means
}

func (r *aggRecorder) attached() int {
	n := 0
	for i := range r.slots {
		if r.slots[i].attached {
			n++
		}
	}
	return n
}

func (r *aggRecorder) hashInto(h hash.Hash) {
	var buf [40]byte
	for i := range r.slots {
		s := &r.slots[i]
		binary.LittleEndian.PutUint32(buf[0:], uint32(s.n))
		binary.LittleEndian.PutUint32(buf[4:], uint32(s.winN))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(s.sum))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(s.winSum))
		binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(s.firstT))
		binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(s.last))
		h.Write(buf[:])
	}
}

// timedRecorder times the recorder it wraps, per session slot so that
// concurrent shards never share a counter.
type timedRecorder struct {
	inner testbed.Recorder
	calls []int32
	busy  []int64
}

func (r *timedRecorder) Attach(id string) int32 { return r.inner.Attach(id) }

func (r *timedRecorder) Record(h int32, t, gbps float64) {
	t0 := time.Now()
	r.inner.Record(h, t, gbps)
	r.busy[h] += int64(time.Since(t0))
	r.calls[h]++
}

// windowMeansOf is aggRecorder.windowMeans computed from full
// recording: per session in roster order, the mean of its throughput
// points with t0 ≤ t < t1, skipping sessions with none.
func windowMeansOf(ts *trace.TimeSet, ids []string, t0, t1 float64) []float64 {
	var means []float64
	for _, id := range ids {
		s := ts.Lookup(id)
		if s == nil {
			continue
		}
		sum, n := 0.0, 0
		for _, p := range s.Points {
			if p.Time >= t0 && p.Time < t1 {
				sum += p.Value
				n++
			}
		}
		if n > 0 {
			means = append(means, sum/float64(n))
		}
	}
	return means
}

func hashTimeSet(h io.Writer, ts *trace.TimeSet) {
	var buf [16]byte
	for _, s := range ts.Series {
		h.Write([]byte(s.Name))
		for _, p := range s.Points {
			binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(p.Time))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Value))
			h.Write(buf[:])
		}
	}
}

func hashTimeline(sum hash.Hash, tl *testbed.Timeline) {
	// Millions of 16-byte points: batch them on their way into the hash.
	h := bufio.NewWriterSize(sum, 64<<10)
	defer h.Flush()
	hashTimeSet(h, &tl.Throughput)
	hashTimeSet(h, &tl.Concurrency)
	hashTimeSet(h, &tl.Loss)
	ids := make([]string, 0, len(tl.Finished))
	for id := range tl.Finished {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(h, "%s=%x;", id, math.Float64bits(tl.Finished[id]))
	}
}

func fleetPass(shape fleetShape, run *scenario.Run, watch bool, tc *traceCtx) (*outcome, error) {
	doc := run.Doc
	out := &outcome{e2e: map[string]float64{}, attempted: len(run.AgentIDs)}
	workers := runtime.NumCPU()
	t0, t1 := doc.DurationSeconds*(1-windowShare), doc.DurationSeconds

	var decide []map[string]*decideStats
	if tc != nil {
		decide = wrapControllers(run)
	}
	var joins, errs int
	var sink session.Sink
	if watch {
		sink = func(e session.Event) {
			switch e.Kind {
			case session.Join:
				joins++
			case session.Error:
				errs++
			}
		}
	}

	var (
		tl    *testbed.Timeline
		rec   *aggRecorder
		timed *timedRecorder
		err   error
	)
	root := tc.begin("testbed.run")
	cpu0 := cpuSeconds()
	start := time.Now()
	switch shape {
	case shapeSteady:
		tl, err = run.Execute(scenario.ExecOptions{Workers: workers, Events: sink})
	case shapeChurn:
		rec = newAggRecorder(run.AgentIDs, t0, t1)
		var r testbed.Recorder = rec
		if tc != nil {
			timed = &timedRecorder{inner: rec, calls: make([]int32, len(run.AgentIDs)), busy: make([]int64, len(run.AgentIDs))}
			r = timed
		}
		var ss *testbed.ShardSet
		if ss, err = testbed.NewShardSet(run.ShardSpecs(), doc.RecordSeconds); err == nil {
			ss.SetRecording(testbed.RecordAggregate, r)
			ss.SetWorkers(workers)
			if sink != nil {
				ss.SetEventSink(sink)
			}
			_, err = ss.Run(doc.DurationSeconds, doc.TickSeconds)
		}
	}
	out.wall = time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	tc.end(root)
	if err != nil {
		return nil, err
	}

	// Everything below is checking, outside the pass's clock.
	var means []float64
	joined := 0
	h := sha256.New()
	if rec != nil {
		means = rec.windowMeans()
		joined = rec.attached()
		rec.hashInto(h)
	} else {
		means = windowMeansOf(&tl.Throughput, run.AgentIDs, t0, t1)
		for _, id := range run.AgentIDs {
			if s := tl.Throughput.Lookup(id); s != nil && s.Len() > 0 {
				joined++
			}
		}
		hashTimeline(h, tl)
	}
	out.sha = hex.EncodeToString(h.Sum(nil))

	capacity := 0.0
	for _, sh := range run.Shards {
		capacity += sh.Config.LinkCapacity
	}
	jainIdx, util := equilibrium(means, capacity)
	sessionSeconds := 0.0
	for _, p := range run.Participants {
		end := doc.DurationSeconds
		if p.LeaveAt > 0 && p.LeaveAt < end {
			end = p.LeaveAt
		}
		if end > p.JoinAt {
			sessionSeconds += end - p.JoinAt
		}
	}
	out.e2e["session_s_per_s"] = sessionSeconds / out.wall
	out.e2e["equilibrium_jain"] = jainIdx
	out.e2e["link_utilisation"] = util

	if joined != len(run.AgentIDs) {
		out.failed += len(run.AgentIDs) - joined
		out.problems = append(out.problems, fmt.Sprintf("%d of %d roster sessions recorded nothing (never joined)", len(run.AgentIDs)-joined, len(run.AgentIDs)))
	}
	if watch {
		if joins != len(run.AgentIDs) {
			out.fail("event stream carried %d joins for %d sessions", joins, len(run.AgentIDs))
		}
		if errs > 0 {
			out.failed += errs
			out.problems = append(out.problems, fmt.Sprintf("%d sessions emitted error events", errs))
		}
	}
	if !(jainIdx > 0 && jainIdx <= 1) {
		out.fail("equilibrium Jain index %v outside (0, 1]", jainIdx)
	}
	if !(util > 0 && util <= 1.001) {
		out.fail("equilibrium throughput is %v of capacity, outside (0, 1]", util)
	}

	if tc != nil {
		out.layer = fleetLayers(decide, timed, tc.timer, out.wall, cpu, workers)
	}
	return out, nil
}

// fleetLayers turns the traced pass's counters into per-layer metrics.
// Busy times are summed over very many very short calls, so the cost
// of reading the clock is taken out call by call.
func fleetLayers(decide []map[string]*decideStats, rec *timedRecorder, timer time.Duration, wall, cpu float64, workers int) map[string]float64 {
	layer := map[string]float64{}
	net := func(busy time.Duration, calls int) float64 {
		b := busy - time.Duration(calls)*timer
		if b < 0 {
			b = 0
		}
		return b.Seconds()
	}
	decideBusy := 0.0
	for _, name := range fleetAlgorithms {
		calls, busy := 0, time.Duration(0)
		var durs []float64
		for _, shard := range decide {
			st := shard[name]
			if st == nil {
				continue
			}
			calls += st.calls
			busy += st.busy
			for _, d := range st.durs {
				durs = append(durs, float64(d))
			}
		}
		layer["core.decide."+name+".calls"] = float64(calls)
		layer["core.decide."+name+".busy_s"] = net(busy, calls)
		decideBusy += net(busy, calls)
		if name == "bo" && len(durs) > 0 {
			sort.Float64s(durs)
			layer["core.decide.bo.p99_us"] = percentile(durs, 99) / 1e3
		}
	}
	recordBusy := 0.0
	if rec != nil {
		calls, busy := 0, time.Duration(0)
		for i := range rec.calls {
			calls += int(rec.calls[i])
			busy += time.Duration(rec.busy[i])
		}
		recordBusy = net(busy, calls)
		layer["testbed.record.calls"] = float64(calls)
		layer["testbed.record.busy_s"] = recordBusy
	}
	layer["testbed.run.wall_s"] = wall
	// Shards step in parallel, so the run's own work is what is left of
	// its CPU time, not of its wall time, once the wrapped calls are
	// taken out.
	layer["testbed.run.self_s"] = math.Max(0, cpu-decideBusy-recordBusy)
	layer["testbed.shard.cpu_over_wall"] = cpu / (wall * float64(workers))
	return layer
}
