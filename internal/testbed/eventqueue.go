package testbed

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/parallel"
	"repro/internal/session"
)

// queueRun is one Run invocation on the event-queue path. Instead of
// scanning every participant at every macro-step, it keeps a queue of
// horizons grouped by distinct time — pending joins, pending leaves,
// each live session's next decision/warm-up deadline, and the engine's
// NextEvent estimate — and pops only what is due at each loop head.
// Completion bookkeeping consumes the engine's drained-task list, and
// recording walks a bitset of live sessions, so steady-state
// orchestration cost scales with the due set, not the fleet size.
//
// Handle scheme: part i owns handle 2i for its lifecycle horizon
// (JoinAt until joined, then LeaveAt while a leave is pending) and
// handle 2i+1 for its session deadline; handle 2·len(parts) is the
// engine's NextEvent estimate. Because the queue pops in (key, handle)
// order and the due set is sorted before processing, identically-
// timed events are handled in ascending part order with lifecycle
// before deadline — exactly the visit order of the always-tick loop
// that scans every part, which keeps the two byte-identical.
type queueRun struct {
	s          *Scheduler
	until      float64
	tick       float64
	tl         *Timeline
	sink       session.Sink
	nextRecord float64

	hz   horizonQueue
	hint int32 // handle of the engine's NextEvent estimate

	due  []int32 // scratch: handles due at the current loop head
	done []int32 // scratch: part indexes to sweep for completion
	// pend is the sessions ticking at the current loop head, in part
	// order, each carried from its sample through its commit.
	pend []pendingTick
	// fan is the pipelined decide-and-commit's state, made at the
	// run's first fan-out with a done flag for every chunk the run's
	// parts can fill, and reused by every later one.
	fan *parallel.Ordered

	// partOf maps an engine task handle to the part that joined with it
	// (-1 for handles minted outside this run), so the engine's drained
	// list resolves to parts without touching a task ID.
	partOf []int32

	// live is the live-session set, one bit per part index; recording
	// walks its set bits, in ascending part order, instead of parts.
	live []uint64

	// sessions/envs are the run's arenas: two flat slabs indexed by
	// part, instead of two heap objects per join.
	sessions []session.Session
	envs     []SimEnvironment
}

// pendingTick is one session's tick in flight, with its part index.
type pendingTick struct {
	session.Pending
	part int32
}

// decideFanout is the number of isolated decisions due at one loop head
// from which deciding them on the scheduler's decide width, with each
// chunk committed as soon as it is decided, pays for waking the
// helpers. Measured with BenchmarkDecideFanout on the 2-core reference
// VM (n hc/gd/bo agents all due together, 99 epochs, width 2 against
// width 1, medians of four runs, two sets): 32 decisions are one chunk,
// which runs inline at either width; 64 lose 16 % and 1 % (13.3 → 15.5
// and 14.4 → 14.5 ms); 96 gain 11 % and 5 % (20.5 → 18.3 ms); 128 gain
// 16–19 %, 192 24 % (41.7 → 31.7 ms) and 512 39 %. A variable, not a
// constant, only so tests can lower it and drive the parallel phase
// with small fleets.
var decideFanout = 96

// decideChunk is how many consecutive pending ticks one fan-out work
// item covers: workers take whole chunks, so neighbours in pend — which
// share cache lines — are written by one goroutine, and the shared
// cursor is touched once per chunk. Per-tick items cost a quarter of
// the phase's speed-up on the 10k-session fleet (0.80 s against 0.64 s).
const decideChunk = 32

func (s *Scheduler) newQueueRun(until, tick float64) *queueRun {
	n := len(s.parts)
	tl := s.newTimeline()
	r := &queueRun{
		s:        s,
		until:    until,
		tick:     tick,
		tl:       tl,
		sink:     s.runSink(tl),
		hint:     int32(2 * n),
		sessions: make([]session.Session, n),
		envs:     make([]SimEnvironment, n),
		partOf:   make([]int32, 0, n),
	}
	// All int32 storage — the horizon queue's links, groups and key
	// table, due/done scratch — lives in one backing block, so a Run
	// costs three fixed allocations of orchestration state (ints, group
	// keys, live bits) regardless of fleet size. Append-bounded
	// sub-slices are capped (three-index slicing) so growth can never
	// bleed into a neighbour.
	m := 2*n + 1
	q := horizonBlock(m)
	ints := make([]int32, q+m+n)
	r.hz.carve(ints[:q], make([]float64, m))
	r.due = ints[q : q : q+m]
	r.done = ints[q+m : q+m : q+m+n]
	r.live = make([]uint64, (n+63)/64)
	for i := range s.parts {
		r.hz.push(int32(2*i), s.parts[i].p.JoinAt)
	}
	// The estimate starts due so the first macro-step computes it.
	r.hz.push(r.hint, math.Inf(-1))
	return r
}

// step executes one macro-step of the event-queue loop; it reports
// false once the horizon is reached. The phase order — lifecycle,
// session ticks, engine advance, completion sweep, recording — is the
// always-tick loop's; within the session ticks, what that loop does
// session by session through Session.Tick runs here as a sample phase
// and then a decide-and-commit phase, pipelined when it fans out.
func (r *queueRun) step() bool {
	s := r.s
	eng := s.eng
	if eng.Now() >= r.until {
		return false
	}
	now := eng.Now()

	// Pop every horizon due at this head, then sort: the queue yields
	// (time, handle) order, the always-tick loop processes parts in
	// index order, and ascending handle order is exactly ascending part
	// order with lifecycle before deadline.
	c := &s.counts
	groups := r.hz.popped
	r.due = r.hz.popDue(now, r.due[:0])
	c.LoopHeads++
	c.Horizons += uint64(len(r.due))
	c.HorizonGroups += r.hz.popped - groups
	slices.Sort(r.due)
	hintDue := false
	if m := len(r.due); m > 0 && r.due[m-1] == r.hint {
		r.due = r.due[:m-1]
		hintDue = true
		c.HintRefreshes++
	}

	// Joins and leaves.
	for _, h := range r.due {
		if h&1 == 0 {
			c.LifecyclePops++
			r.lifecycle(int(h>>1), now)
		}
	}

	// Decision epochs and warm-up expiry, owned by each session, in
	// two phases. The popped deadline handles are exactly the sessions
	// whose Tick would do anything: a Tick before a session's deadline is
	// a no-op by construction.
	//
	// Sample, in part order: this is where the engine's noise stream is
	// drawn, so the order is the always-tick loop's.
	r.pend = r.pend[:0]
	isolated := 0
	for _, h := range r.due {
		if h&1 == 1 {
			c.DeadlinePops++
			isolated += r.sample(h>>1, now)
		}
	}
	c.Isolated += uint64(isolated)
	// Decide and commit. Commit runs on this goroutine in part order:
	// events, Apply to the session's own task, the warm-up restart and
	// the re-armed deadline, all as Tick interleaves them per session;
	// a controller that did not declare itself isolated is decided
	// inline by it. Isolated controllers run on private state only, so
	// a due set worth the wake-up is decided a chunk at a time over the
	// decide width, and each chunk is committed as soon as it is
	// decided, while the helpers decide the chunks after it: no commit
	// reads what a later chunk's decisions write, nor they what it
	// writes.
	if s.decideWidth > 1 && isolated >= decideFanout {
		c.Fanouts++
		if r.fan == nil {
			r.fan = parallel.NewOrdered((len(s.parts) + decideChunk - 1) / decideChunk)
		}
		r.fan.ForEachOrdered((len(r.pend)+decideChunk-1)/decideChunk, s.decideWidth, r.decide, func(chunk int) {
			for k := chunk * decideChunk; k < min((chunk+1)*decideChunk, len(r.pend)); k++ {
				r.commit(&r.pend[k], now)
			}
		})
	} else {
		for k := range r.pend {
			r.commit(&r.pend[k], now)
		}
	}

	if hintDue {
		// Refresh the engine estimate lazily: it is advisory (RunTicks
		// re-verifies every tick and stops at real file-count events),
		// so a stale value can only change how often the loop regains
		// control, never what it observes.
		r.hz.push(r.hint, eng.NextEvent())
	}
	eng.RunTicks(r.batch(now), r.tick)

	// Completion bookkeeping: the engine reports which tasks drained
	// during the advance; tasks that were already done when they
	// joined were queued by lifecycle. Sorting recovers the always-tick
	// loop's part-order sweep.
	for _, h := range eng.Drained() {
		if int(h) < len(r.partOf) && r.partOf[h] >= 0 {
			r.done = append(r.done, r.partOf[h])
		}
	}
	if len(r.done) > 0 {
		slices.Sort(r.done)
		end := eng.Now()
		last := int32(-1)
		for _, i := range r.done {
			if i == last {
				continue
			}
			last = i
			e := &s.parts[i]
			if e.sess != nil && !e.sess.Finished() && e.p.Task.Done() {
				eng.RemoveTask(e.p.Task.ID())
				e.sess.Finish(end)
				r.hz.remove(2*i + 1)
				r.hz.remove(2 * i)
				r.unlink(int(i))
			}
		}
		r.done = r.done[:0]
	}

	// Recording. The boundary also bounds the macro-step sizing.
	if t := eng.Now(); t >= r.nextRecord {
		for w, word := range r.live {
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				s.recordPoint(r.tl, i, r.envs[i].h, t)
			}
		}
		r.nextRecord = t + s.record
	}
	return true
}

// lifecycle handles part i's due lifecycle horizon: its join if the
// session does not exist yet, a pending leave otherwise.
func (r *queueRun) lifecycle(i int, now float64) {
	s := r.s
	e := &s.parts[i]
	if e.sess == nil {
		s.join(i, &r.envs[i], &r.sessions[i], r.sink)
		h := r.envs[i].h
		for int(h) >= len(r.partOf) {
			r.partOf = append(r.partOf, -1)
		}
		r.partOf[h] = int32(i)
		if s.recMode == RecordFull {
			s.reserveSeries(r.tl, i, now, r.until)
		}
		r.link(i)
		e.sess.Start(now, e.p.Task.Setting())
		r.hz.push(int32(2*i+1), e.sess.NextDeadline())
		if e.p.Task.Done() {
			// Joined already drained (empty horizon): the completion
			// sweep catches this right after the advance.
			r.done = append(r.done, int32(i))
		}
		if e.p.LeaveAt > 0 {
			if now >= e.p.LeaveAt {
				r.leave(i, now)
			} else {
				r.hz.push(int32(2*i), e.p.LeaveAt)
			}
		}
		return
	}
	if !e.sess.Finished() && e.p.LeaveAt > 0 && now >= e.p.LeaveAt {
		r.leave(i, now)
	}
}

// leave removes part i's task and closes its session, dropping all of
// its horizons and its live bit.
func (r *queueRun) leave(i int, now float64) {
	e := &r.s.parts[i]
	r.s.eng.RemoveTask(e.p.Task.ID())
	e.sess.Leave(now)
	r.hz.remove(int32(2*i + 1))
	r.hz.remove(int32(2 * i))
	r.unlink(i)
}

// sample runs part i's sample step, queueing its tick for the commit;
// it reports 1 if the tick awaits an isolated decision, else 0.
func (r *queueRun) sample(i int32, now float64) int {
	sess := r.s.parts[i].sess
	if sess == nil || sess.Finished() {
		return 0
	}
	r.pend = append(r.pend, pendingTick{part: i})
	p := &r.pend[len(r.pend)-1]
	sess.Sample(now, &p.Pending)
	if p.Isolated() {
		return 1
	}
	return 0
}

// decide runs the isolated controllers of the c-th chunk of pend. It is
// the parallel half of a fan-out: a controller's panic is re-raised
// naming its task and surfaces, through parallel.Ordered, on the
// scheduler's goroutine.
func (r *queueRun) decide(c int) {
	var e *schedEntry
	defer func() {
		if v := recover(); v != nil {
			panic(fmt.Sprintf("testbed: controller for %q panicked: %v", e.p.Task.ID(), v))
		}
	}()
	chunk := r.pend[c*decideChunk : min((c+1)*decideChunk, len(r.pend))]
	for k := range chunk {
		if p := &chunk[k]; p.Isolated() {
			e = &r.s.parts[p.part]
			e.sess.Decide(&p.Pending)
		}
	}
}

// commit finishes p's tick and re-arms its part's deadline horizon.
func (r *queueRun) commit(p *pendingTick, now float64) {
	e := &r.s.parts[p.part]
	if err := e.sess.Commit(now, &p.Pending); err != nil {
		panic(fmt.Sprintf("testbed: controller for %q produced invalid setting: %v", e.p.Task.ID(), err))
	}
	r.hz.push(2*p.part+1, e.sess.NextDeadline())
}

// batch sizes one macro-step: the number of consecutive ticks the
// engine may take before the loop must regain control at the next
// event horizon. The queue's minimum bounds the loop-head times: at
// this point the queue holds every pending join and leave, every live
// session's post-Tick deadline, and the engine's estimate of the next
// file-count event (advisory only: it can shorten a batch, since
// RunTicks re-verifies each tick, never change results). The recording
// point fires after a step, so it stops the batch right after the tick
// that crosses it. Head times are replayed with the same additions the
// engine clock performs, so every boundary comparison is bit-identical
// to the always-tick loop's.
func (r *queueRun) batch(now float64) int {
	h := r.hz.minKey()
	k, t := 0, now
	for t < r.until && t < h {
		t += r.tick
		k++
		if t >= r.nextRecord {
			break
		}
	}
	if k < 1 {
		k = 1
	}
	return k
}

// link and unlink add part i to and drop it from the live set.
func (r *queueRun) link(i int)   { r.live[i>>6] |= 1 << (i & 63) }
func (r *queueRun) unlink(i int) { r.live[i>>6] &^= 1 << (i & 63) }
