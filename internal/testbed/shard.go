package testbed

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/session"
)

// ShardSpec describes one independent contention domain of a fleet: the
// participants routed over one bottleneck, the environment they share,
// and the mutations that touch it. Tasks in different shards never
// contend, so each shard runs on its own Engine (with its own
// event-queue scheduler and horizon queue) and the shards can be stepped
// concurrently.
type ShardSpec struct {
	// Key identifies the shard's contention domain — for scenario-built
	// fleets the route signature (the ordered link IDs the shard's
	// agents traverse). Diagnostic only; merge order is slice order.
	Key string
	// Config is the shard's environment. LinkCapacity and RTT describe
	// the shard's own routed path.
	Config Config
	// Seed seeds the shard engine's noise stream.
	Seed int64
	// Mutations is the shard's compiled mutation schedule.
	Mutations []Mutation
	// Parts are the shard's participants. Task IDs must be unique
	// across the whole ShardSet, not just within a shard.
	Parts []Participant
}

// ShardSet runs K independent shards and merges their results
// deterministically: timelines concatenate in shard order (task IDs are
// globally unique), and event streams interleave by (virtual time,
// shard index, per-shard emission order) — so the merged output is
// byte-identical no matter how many workers step the shards, matching
// the house rule enforced for -parallel.
type ShardSet struct {
	shards  []ShardSpec
	record  float64
	events  session.Sink
	logf    func(format string, args ...any)
	workers int

	// recMode/recorder are forwarded to every shard scheduler. The
	// Recorder sees concurrent Attach/Record calls from shard worker
	// goroutines (never for the same session); see Recorder.
	recMode  RecordMode
	recorder Recorder

	// Warmup is forwarded to every shard scheduler (see
	// Scheduler.Warmup). Default 1 s.
	Warmup float64

	counts Counts // summed over every shard of every Run
}

// NewShardSet builds a sharded run over the given shard specs.
// recordInterval matches NewScheduler's. It returns an error for an
// empty shard list or task IDs duplicated across shards.
func NewShardSet(shards []ShardSpec, recordInterval float64) (*ShardSet, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("testbed: shard set with no shards")
	}
	total := 0
	for i := range shards {
		total += len(shards[i].Parts)
	}
	seen := make(map[string]int, total)
	for i := range shards {
		for _, p := range shards[i].Parts {
			if p.Task == nil {
				return nil, fmt.Errorf("testbed: shard %d (%s) has a participant with nil task", i, shards[i].Key)
			}
			id := p.Task.ID()
			if prev, dup := seen[id]; dup {
				return nil, fmt.Errorf("testbed: task %q appears in shards %d and %d", id, prev, i)
			}
			seen[id] = i
		}
	}
	return &ShardSet{shards: shards, record: recordInterval, Warmup: 1}, nil
}

// SetEventSink installs an external consumer for the merged session
// event stream. With more than one shard, events are buffered per shard
// and delivered after the run in merged order; single-shard sets pass
// the sink straight through, so live consumers (progress endpoints)
// keep streaming. Must be called before Run.
func (ss *ShardSet) SetEventSink(sink session.Sink) { ss.events = sink }

// SetLogf installs an optional progress logger, fed from the merged
// event stream (join/leave/finish lines in merged order).
func (ss *ShardSet) SetLogf(f func(format string, args ...any)) { ss.logf = f }

// SetRecording selects every shard scheduler's record mode (see
// Scheduler.SetRecording). Must be called before Run.
func (ss *ShardSet) SetRecording(mode RecordMode, rec Recorder) {
	if mode == RecordAggregate && rec == nil {
		panic("testbed: RecordAggregate requires a Recorder")
	}
	ss.recMode = mode
	ss.recorder = rec
}

// SetWorkers sets the run's worker budget (the -shards flag): how many
// shards step concurrently and, where shards are fewer than workers,
// how wide each decides (see DecideWidth). 1 or less runs serially,
// except 0, which keeps the parallel harness default. The budget never
// affects output, only wall time.
func (ss *ShardSet) SetWorkers(n int) { ss.workers = n }

// budget resolves the worker budget: at least 1, 0 meaning the parallel
// harness default.
func (ss *ShardSet) budget() int {
	if ss.workers == 0 {
		return parallel.Workers()
	}
	return max(ss.workers, 1)
}

// DecideWidth is how many goroutines each shard's scheduler may decide
// one loop head's due set on: the worker budget divided among the
// shards stepping at once, so a one-bottleneck fleet gets the whole
// budget and a fleet with a shard per worker decides serially.
func (ss *ShardSet) DecideWidth() int {
	w := ss.budget()
	return w / min(w, len(ss.shards))
}

// Counts returns the work counts of every shard scheduler the set has
// run, summed: loop heads, horizons, fan-outs, isolated decisions and
// engine tick tiers (see Counts).
func (ss *ShardSet) Counts() Counts { return ss.counts }

// Run steps every shard to the given horizon and returns the merged
// timeline. Each shard builds its own Engine, schedules its mutations,
// and runs its participants on its own scheduler; shards execute on the
// parallel worker pool and results merge by shard index, so output is
// independent of worker count and interleaving.
func (ss *ShardSet) Run(until, tick float64) (*Timeline, error) {
	if len(ss.shards) == 1 {
		// One shard is exactly the unsharded run: drive it directly so
		// external event consumers stay live and output is trivially
		// identical to a plain Scheduler run.
		sched, err := ss.build(&ss.shards[0], ss.events, ss.logf)
		if err != nil {
			return nil, err
		}
		tl := sched.Run(until, tick)
		ss.counts = ss.counts.add(sched.Counts())
		return tl, nil
	}

	tls := make([]*Timeline, len(ss.shards))
	bufs := make([][]session.Event, len(ss.shards))
	errs := make([]error, len(ss.shards))
	counts := make([]Counts, len(ss.shards))
	capture := ss.events != nil || ss.logf != nil
	parallel.ForEachN(len(ss.shards), ss.budget(), func(i int) {
		var sink session.Sink
		if capture {
			buf := &bufs[i]
			sink = func(e session.Event) { *buf = append(*buf, e) }
		}
		sched, err := ss.build(&ss.shards[i], sink, nil)
		if err != nil {
			errs[i] = err
			return
		}
		tls[i] = sched.Run(until, tick)
		counts[i] = sched.Counts()
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, c := range counts {
		ss.counts = ss.counts.add(c)
	}
	if capture {
		sink := session.MultiSink(ss.events, logEventSink(ss.logf))
		mergeEvents(bufs, sink)
	}
	return mergeTimelines(tls), nil
}

// build assembles one shard's engine and scheduler.
func (ss *ShardSet) build(sh *ShardSpec, sink session.Sink, logf func(format string, args ...any)) (*Scheduler, error) {
	eng, err := NewEngine(sh.Config, sh.Seed)
	if err != nil {
		return nil, fmt.Errorf("testbed: shard %s: %w", sh.Key, err)
	}
	for _, m := range sh.Mutations {
		if err := eng.ScheduleMutation(m); err != nil {
			return nil, fmt.Errorf("testbed: shard %s: %w", sh.Key, err)
		}
	}
	sched := NewScheduler(eng, ss.record)
	sched.Warmup = ss.Warmup
	sched.decideWidth = ss.DecideWidth()
	sched.SetRecording(ss.recMode, ss.recorder)
	if sink != nil {
		sched.SetEventSink(sink)
	}
	if logf != nil {
		sched.SetLogf(logf)
	}
	sched.Reserve(len(sh.Parts))
	for _, p := range sh.Parts {
		if err := sched.Add(p); err != nil {
			return nil, fmt.Errorf("testbed: shard %s: %w", sh.Key, err)
		}
	}
	return sched, nil
}

// mergeEvents interleaves the per-shard event buffers into sink by
// (Time, shard index); within a shard the emission order is preserved.
// Per-shard streams are time-nondecreasing (events are emitted as the
// shard's clock advances), so a head-of-stream merge is a total order.
func mergeEvents(bufs [][]session.Event, sink session.Sink) {
	idx := make([]int, len(bufs))
	for {
		best := -1
		for s := range bufs {
			if idx[s] >= len(bufs[s]) {
				continue
			}
			if best < 0 || bufs[s][idx[s]].Time < bufs[best][idx[best]].Time {
				best = s
			}
		}
		if best < 0 {
			return
		}
		sink(bufs[best][idx[best]])
		idx[best]++
	}
}

// mergeTimelines concatenates shard timelines in shard order. Task IDs
// are unique across shards, so series never collide; series order in
// the merged sets is (shard index, creation order within shard), a pure
// function of the shard specs.
func mergeTimelines(tls []*Timeline) *Timeline {
	out := &Timeline{Finished: make(map[string]float64)}
	nT, nC, nL := 0, 0, 0
	for _, tl := range tls {
		nT += len(tl.Throughput.Series)
		nC += len(tl.Concurrency.Series)
		nL += len(tl.Loss.Series)
	}
	out.Throughput.Reserve(nT)
	out.Concurrency.Reserve(nC)
	out.Loss.Reserve(nL)
	for _, tl := range tls {
		out.Throughput.Adopt(tl.Throughput.Series...)
		out.Concurrency.Adopt(tl.Concurrency.Series...)
		out.Loss.Adopt(tl.Loss.Series...)
		for id, t := range tl.Finished {
			out.Finished[id] = t
		}
	}
	return out
}
