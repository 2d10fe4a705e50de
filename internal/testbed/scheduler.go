package testbed

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/session"
	"repro/internal/trace"
	"repro/internal/transfer"
)

// Controller decides the next transfer setting from the sample of the
// last decision epoch. Falcon agents, the Globus heuristic, and the
// HARP model all satisfy this interface. It is an alias of
// session.Decider: any controller that drives the simulator also
// drives a real transfer through session.Run, and vice versa.
type Controller = session.Decider

// FixedController always returns the same setting (the Globus-style
// "fixed strategy" of §2, and the knob-sweep experiments).
type FixedController struct{ S transfer.Setting }

// Decide returns the fixed setting.
func (f FixedController) Decide(transfer.Sample) transfer.Setting { return f.S }

// Participant couples a task with its controller and schedule.
type Participant struct {
	// Task is the transfer to run. Its initial setting is used for the
	// first epoch.
	Task *transfer.Task
	// Controller chooses each subsequent epoch's setting. A nil
	// controller keeps the task's initial setting forever.
	Controller Controller
	// JoinAt is the simulation time at which the task starts.
	JoinAt float64
	// LeaveAt, when positive, removes the task at that time even if it
	// has data left (a departing competitor).
	LeaveAt float64
	// SampleInterval overrides the testbed's default sample-transfer
	// duration when positive.
	SampleInterval float64
}

// Timeline is the recorded outcome of a Scheduler run. For every task
// it holds a throughput series (Gbps, sampled every RecordInterval), a
// concurrency series, and a loss series (recorded at decision epochs).
type Timeline struct {
	// Throughput, Concurrency, Loss are keyed by task ID in their
	// series names ("<id>/throughput" etc.) within each TimeSet.
	Throughput  trace.TimeSet
	Concurrency trace.TimeSet
	Loss        trace.TimeSet
	// Finished maps task ID to completion time for tasks that drained
	// their dataset before the run ended.
	Finished map[string]float64

	// series is the recording run's per-participant series table,
	// indexed by the Index its sessions stamp on their events, so a
	// recorded point lands in its series without a by-name lookup.
	series []partSeries
}

// partSeries is one participant's three series, resolved by name once.
type partSeries struct{ tput, conc, loss *trace.Series }

// seriesOf returns the series of the participant with the given index
// and task ID, creating them on first use.
func (tl *Timeline) seriesOf(i int, id string) *partSeries {
	for i >= len(tl.series) {
		tl.series = append(tl.series, partSeries{})
	}
	ps := &tl.series[i]
	if ps.tput == nil {
		*ps = partSeries{tl.Throughput.Get(id), tl.Concurrency.Get(id), tl.Loss.Get(id)}
	}
	return ps
}

// MeanThroughputGbps returns a task's average recorded throughput in
// Gbps between t0 and t1.
func (tl *Timeline) MeanThroughputGbps(id string, t0, t1 float64) float64 {
	s := tl.Throughput.Lookup(id)
	if s == nil {
		return 0
	}
	return s.MeanBetween(t0, t1)
}

// Sink returns an event consumer that records session events into the
// timeline: Sample events append to the loss series, Decision events
// to the concurrency series, and Finish events mark completion times.
// The trace timelines are thereby just one consumer of the session
// event stream, alongside live status endpoints and CLI reporters.
// Series are found by Event.Index, so the stream must come from one
// driver whose sessions carry distinct indexes.
func (tl *Timeline) Sink() session.Sink {
	return func(e session.Event) {
		switch e.Kind {
		case session.Sample:
			tl.seriesOf(e.Index, e.Session).loss.Append(e.Time, e.Sample.Loss)
		case session.Decision:
			tl.seriesOf(e.Index, e.Session).conc.Append(e.Time, float64(e.Setting.Concurrency))
		case session.Finish:
			if tl.Finished == nil {
				tl.Finished = make(map[string]float64)
			}
			if _, seen := tl.Finished[e.Session]; !seen {
				tl.Finished[e.Session] = e.Time
			}
		}
	}
}

// Scheduler orchestrates N session loops over an Engine's shared
// virtual clock: it admits participants at their join times, ticks
// each live session at its decision and warm-up deadlines (the
// sessions own epoch cadence, warm-up, and decision flow), and records
// timelines by consuming the sessions' event streams.
type Scheduler struct {
	eng     *Engine
	parts   []schedEntry
	byID    map[string]int // task ID → index in parts
	record  float64        // recording interval, seconds
	verbose func(format string, args ...any)
	events  session.Sink // optional external event consumer
	// decideWidth is how many goroutines the event-queue run may decide
	// one loop head's isolated due set on; ≤ 1 decides inline. Derived
	// by ShardSet from its worker budget, never set by callers.
	decideWidth int

	// recMode/recorder select what a run writes down (see RecordMode);
	// the cadence — and therefore the simulation — is mode-invariant.
	recMode  RecordMode
	recorder Recorder

	// Warmup is how long after a setting change the measurement window
	// is discarded before metrics accumulate, excluding the TCP
	// ramp-up transient — the paper captures performance "once the
	// sample transfer is executed for a sufficient amount of time"
	// (§3). Default 1 s; negative disables.
	Warmup float64

	counts Counts // the orchestration half of Counts
}

// Counts counts a scheduler's work over all its runs. Every popped
// horizon is exactly one lifecycle pop, deadline pop or hint refresh.
type Counts struct {
	// LoopHeads is the number of macro-steps: each pops the horizons
	// due at its head and advances the engine once.
	LoopHeads uint64
	// Horizons is the number of horizons popped, and HorizonGroups the
	// number of distinct-time groups they were popped in.
	Horizons      uint64
	HorizonGroups uint64
	// LifecyclePops are popped joins and leaves, DeadlinePops popped
	// session decision/warm-up deadlines, HintRefreshes popped engine
	// NextEvent estimates.
	LifecyclePops uint64
	DeadlinePops  uint64
	HintRefreshes uint64
	// Isolated is the number of decisions made by controllers that
	// declared isolation; Fanouts the loop heads that spread them over
	// the decide width.
	Isolated uint64
	Fanouts  uint64
	// Ticks is the engine's tick counts, by tier and full-step cause.
	Ticks TickCounts
}

// add returns the field-by-field sum of c and d.
func (c Counts) add(d Counts) Counts {
	return Counts{
		LoopHeads:     c.LoopHeads + d.LoopHeads,
		Horizons:      c.Horizons + d.Horizons,
		HorizonGroups: c.HorizonGroups + d.HorizonGroups,
		LifecyclePops: c.LifecyclePops + d.LifecyclePops,
		DeadlinePops:  c.DeadlinePops + d.DeadlinePops,
		HintRefreshes: c.HintRefreshes + d.HintRefreshes,
		Isolated:      c.Isolated + d.Isolated,
		Fanouts:       c.Fanouts + d.Fanouts,
		Ticks:         c.Ticks.add(d.Ticks),
	}
}

// Counts returns the scheduler's work counts, its engine's tick tiers
// included.
func (s *Scheduler) Counts() Counts {
	c := s.counts
	c.Ticks = s.eng.TickCounts()
	return c
}

type schedEntry struct {
	p        Participant
	interval float64
	sess     *session.Session // created at join time, arena-backed per run
	rec      int32            // Recorder handle (RecordAggregate), set at join
}

// NewScheduler wraps an engine. recordInterval controls the granularity
// of the throughput timeline (seconds); values ≤ 0 default to 1 s.
func NewScheduler(eng *Engine, recordInterval float64) *Scheduler {
	if recordInterval <= 0 {
		recordInterval = 1
	}
	return &Scheduler{eng: eng, record: recordInterval, Warmup: 1}
}

// smallFleet is the participant count below which the scheduler keeps
// linear ID lookups instead of building its byID index.
const smallFleet = 16

// partIndex returns the parts index of the given task ID.
func (s *Scheduler) partIndex(id string) (int, bool) {
	if s.byID != nil {
		i, ok := s.byID[id]
		return i, ok
	}
	for i := range s.parts {
		if s.parts[i].p.Task.ID() == id {
			return i, true
		}
	}
	return 0, false
}

// Reserve pre-sizes the participant table (and, past the smallFleet
// threshold, the ID index) for n additions, so a million Adds do not
// pay incremental growth copies.
func (s *Scheduler) Reserve(n int) {
	if extra := n - (cap(s.parts) - len(s.parts)); extra > 0 {
		grown := make([]schedEntry, len(s.parts), len(s.parts)+n)
		copy(grown, s.parts)
		s.parts = grown
	}
	if s.byID == nil && len(s.parts)+n > smallFleet {
		s.byID = make(map[string]int, len(s.parts)+n)
		for i := range s.parts {
			s.byID[s.parts[i].p.Task.ID()] = i
		}
	}
}

// SetLogf installs an optional progress logger.
func (s *Scheduler) SetLogf(f func(format string, args ...any)) { s.verbose = f }

// SetEventSink installs an external consumer for every session's event
// stream — live status endpoints, metrics, and (future) fault
// injectors hook in here. It must be called before Run.
func (s *Scheduler) SetEventSink(sink session.Sink) { s.events = sink }

// Add registers a participant. It returns an error for nil tasks,
// duplicate IDs, or negative schedule times.
func (s *Scheduler) Add(p Participant) error {
	if p.Task == nil {
		return fmt.Errorf("testbed: participant with nil task")
	}
	if p.JoinAt < 0 {
		return fmt.Errorf("testbed: participant %q negative JoinAt %v", p.Task.ID(), p.JoinAt)
	}
	if p.LeaveAt != 0 && p.LeaveAt <= p.JoinAt {
		return fmt.Errorf("testbed: participant %q LeaveAt %v not after JoinAt %v", p.Task.ID(), p.LeaveAt, p.JoinAt)
	}
	if _, dup := s.partIndex(p.Task.ID()); dup {
		return fmt.Errorf("testbed: duplicate participant %q", p.Task.ID())
	}
	interval := p.SampleInterval
	if interval <= 0 {
		interval = s.eng.Config().SampleInterval
	}
	if s.byID == nil && len(s.parts)+1 > smallFleet {
		s.byID = make(map[string]int, 2*len(s.parts))
		for i := range s.parts {
			s.byID[s.parts[i].p.Task.ID()] = i
		}
	}
	if s.byID != nil {
		s.byID[p.Task.ID()] = len(s.parts)
	}
	s.parts = append(s.parts, schedEntry{p: p, interval: interval})
	return nil
}

// Run advances the simulation until the given time (seconds) with the
// given tick, orchestrating one session loop per participant over the
// shared virtual clock: joins and leaves at their scheduled times,
// session Ticks at their decision and warm-up deadlines (epoch
// cadence, warm-up, and decision flow are session-owned), completion
// sweeps, and periodic throughput recording. It returns the timeline
// recorded from the sessions' event streams.
//
// Between those boundaries nothing observable can happen, so Run
// advances the engine in one macro-step per loop iteration
// (Engine.RunTicks) rather than regaining control every tick, and an
// event queue (see eventqueue.go) — a min-heap of horizons grouped by
// distinct time — pops only the sessions whose deadlines are actually due, so per-step
// orchestration cost scales with the due set rather than the fleet
// size. The timelines and event streams are identical, event for
// event, to the always-tick loop that ticks every live session and
// takes a full engine Step every tick; the package tests keep that
// loop as the reference. Run panics on non-positive tick or horizon —
// driver bugs.
func (s *Scheduler) Run(until, tick float64) *Timeline {
	if tick <= 0 || until <= 0 {
		panic(fmt.Sprintf("testbed: Run(until=%v, tick=%v) invalid", until, tick))
	}
	r := s.newQueueRun(until, tick)
	for r.step() {
	}
	return r.tl
}

// newTimeline returns a run's empty timeline. RecordFull sizes the
// series slices, the series table and the completion map for the whole
// roster up front, keeping the steady-state loop allocation-free;
// outside full mode nothing accumulates, so they stay empty.
func (s *Scheduler) newTimeline() *Timeline {
	if s.recMode != RecordFull {
		return &Timeline{Finished: make(map[string]float64)}
	}
	n := len(s.parts)
	tl := &Timeline{Finished: make(map[string]float64, n), series: make([]partSeries, n)}
	tl.Throughput.Reserve(n)
	tl.Concurrency.Reserve(n)
	tl.Loss.Reserve(n)
	return tl
}

// runSink assembles a run's session-event sink. Outside RecordFull the
// timeline consumer is dropped — no per-session series accumulate —
// while the progress log and any external sink still see every event.
func (s *Scheduler) runSink(tl *Timeline) session.Sink {
	if s.recMode == RecordFull {
		return session.MultiSink(tl.Sink(), s.logSink(), s.events)
	}
	return session.MultiSink(s.logSink(), s.events)
}

// join constructs part i's environment and session in the supplied
// arena slots and attaches the aggregate recorder — the construction
// half of a join, shared verbatim by the event-queue run and the
// tests' always-tick reference, so both stamp the same Index on the
// session's events. The caller wires the session into its own
// bookkeeping and calls Start.
func (s *Scheduler) join(i int, env *SimEnvironment, sess *session.Session, sink session.Sink) {
	e := &s.parts[i]
	id := e.p.Task.ID()
	if err := initSimEnvironment(env, s.eng, e.p.Task); err != nil {
		panic(fmt.Sprintf("testbed: join %q: %v", id, err))
	}
	if err := session.Init(sess, env, e.p.Controller, session.Config{
		ID:       id,
		Index:    i,
		Interval: e.interval,
		Warmup:   s.Warmup,
		Events:   sink,
	}); err != nil {
		panic(fmt.Sprintf("testbed: session %q: %v", id, err))
	}
	e.sess = sess
	if s.recMode == RecordAggregate {
		e.rec = s.recorder.Attach(id)
	}
}

// reserveSeries pre-sizes a joining participant's timeline series for
// the remaining horizon (RecordFull only): one throughput point per
// recording interval and one concurrency/loss point per decision
// epoch, so the run loop's appends never reallocate. This is also where
// a part that can still record gets its entry in the series table.
func (s *Scheduler) reserveSeries(tl *Timeline, i int, now, until float64) {
	e := &s.parts[i]
	end := until
	if e.p.LeaveAt > 0 && e.p.LeaveAt < end {
		end = e.p.LeaveAt
	}
	if remaining := end - now; remaining > 0 {
		ps := tl.seriesOf(i, e.p.Task.ID())
		epochs := int(remaining/e.interval) + 2
		ps.tput.Grow(int(remaining/s.record) + 2)
		ps.conc.Grow(epochs)
		ps.loss.Grow(epochs)
	}
}

// recordPoint writes live part i's recording point at time t: its rate,
// read by its task handle h, appended to the throughput series
// reserveSeries resolved (RecordFull) or streamed to the recorder
// (RecordAggregate).
func (s *Scheduler) recordPoint(tl *Timeline, i int, h int32, t float64) {
	gbps := s.eng.rateOf(h) / 1e9
	if s.recMode == RecordFull {
		tl.series[i].tput.Append(t, gbps)
	} else {
		s.recorder.Record(s.parts[i].rec, t, gbps)
	}
}

// logSink translates lifecycle events into the legacy progress-log
// lines, or nil when no logger is installed.
func (s *Scheduler) logSink() session.Sink {
	return logEventSink(s.verbose)
}

// logEventSink renders lifecycle events through verbose as the
// progress-log lines, or nil when verbose is nil. Shared between the
// scheduler's live logger and the shard merger's post-run replay so
// sharded and unsharded runs print identical lines.
func logEventSink(verbose func(format string, args ...any)) session.Sink {
	if verbose == nil {
		return nil
	}
	return func(e session.Event) {
		switch e.Kind {
		case session.Join:
			verbose("t=%.0fs: %s joins (%s)", e.Time, e.Session, e.Setting)
		case session.Leave:
			verbose("t=%.0fs: %s leaves", e.Time, e.Session)
		case session.Finish:
			verbose("t=%.0fs: %s finished", e.Time, e.Session)
		}
	}
}

// SweepConcurrency measures steady-state throughput (Gbps) and loss for
// each concurrency value in values, running each as a fresh single
// transfer for settleTime seconds and measuring over the final
// measureTime seconds. It is the workhorse behind Figures 1(a) and 4.
//
// Sweep points share no engine: each runs on its own Engine seeded
// seed+i, so the points execute across the parallel worker pool with
// results assembled by index — identical to a serial sweep. The ds
// factory is called once per point, possibly concurrently, and must
// not share mutable state between calls.
func SweepConcurrency(cfg Config, seed int64, ds func() *transfer.Task, values []int, settleTime, measureTime float64) ([]float64, []float64, error) {
	if settleTime <= 0 || measureTime <= 0 {
		return nil, nil, fmt.Errorf("testbed: sweep times must be positive")
	}
	samples, err := parallel.Map(len(values), func(i int) (transfer.Sample, error) {
		eng, err := NewEngine(cfg, seed+int64(i))
		if err != nil {
			return transfer.Sample{}, err
		}
		task := ds()
		set := task.Setting()
		set.Concurrency = values[i]
		if err := task.SetSetting(set); err != nil {
			return transfer.Sample{}, err
		}
		if err := eng.AddTask(task); err != nil {
			return transfer.Sample{}, err
		}
		const tick = 0.25
		eng.StepUntil(settleTime, tick)
		eng.BeginWindow(task.ID())
		eng.StepUntil(settleTime+measureTime, tick)
		return eng.TakeSample(task.ID())
	})
	if err != nil {
		return nil, nil, err
	}
	tputs := make([]float64, len(values))
	losses := make([]float64, len(values))
	for i, s := range samples {
		tputs[i], losses[i] = s.Throughput/1e9, s.Loss
	}
	return tputs, losses, nil
}

// OptimalConcurrency exhaustively profiles concurrency values 1..maxN
// and returns the smallest n whose steady-state throughput is within
// tol (relative) of the best observed — the ground-truth "optimal
// concurrency" used by Figure 1(b) and convergence analyses.
func OptimalConcurrency(cfg Config, seed int64, ds func() *transfer.Task, maxN int, tol float64) (int, error) {
	values := make([]int, maxN)
	for i := range values {
		values[i] = i + 1
	}
	tputs, _, err := SweepConcurrency(cfg, seed, ds, values, 12, 6)
	if err != nil {
		return 0, err
	}
	best := 0.0
	for _, t := range tputs {
		best = math.Max(best, t)
	}
	for i, t := range tputs {
		if t >= best*(1-tol) {
			return values[i], nil
		}
	}
	return values[len(values)-1], nil
}
