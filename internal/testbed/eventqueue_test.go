package testbed

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/session"
	"repro/internal/transfer"
)

// lowerDecideFanout sets the fan-out threshold for the test, so fleets
// of tens of sessions drive the parallel decide phase. It is the only
// way to set it: production has no setter.
func lowerDecideFanout(t testing.TB, n int) {
	t.Helper()
	old := decideFanout
	decideFanout = n
	t.Cleanup(func() { decideFanout = old })
}

// fleetScenario builds a mixed fleet designed to stress every ordering
// decision the event-queue scheduler makes: staggered joins with many
// identical join times, departures at identical leave times, small
// tasks that drain mid-run, sessions sharing the default sample
// interval (identical decision deadlines every epoch), and a few
// off-cadence intervals so deadlines also interleave. A third of the
// fleet is test doubles decided inline, a third Falcon agents (hc, gd
// and bo in turn) that declare themselves isolated and react to the
// engine's noisy samples — so the order the noise stream is drawn in
// shows in every later decision — and a third has no controller.
func fleetScenario(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	shared := dataset.Uniform("eq-fleet", 5000, int64(dataset.GB))
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("eq%04d", i)
		var task *transfer.Task
		var err error
		if i%7 == 3 {
			// Finisher: drains well inside the horizon at any fleet
			// size (≈0.5 Gb against a ≥20 Mbps max-min share once the
			// agents have raised everyone's concurrency).
			task, err = transfer.NewTask(id, dataset.Uniform(id, 4, 16_000_000),
				transfer.Setting{Concurrency: 2, Parallelism: 1, Pipelining: 1})
		} else {
			task, err = transfer.NewTask(id, shared,
				transfer.Setting{Concurrency: 1 + i%4, Parallelism: 1, Pipelining: 1})
		}
		if err != nil {
			t.Fatal(err)
		}
		p := Participant{Task: task, JoinAt: float64(i%5) * 7}
		switch i % 3 {
		case 0:
			ci := new(int)
			p.Controller = cycler{vals: []int{2, 4, 4, 3, 5}, i: ci}
		case 1:
			agent, err := core.NewFleetAgent([]string{"hc", "gd", "bo"}[i/3%3], 8, int64(i))
			if err != nil {
				t.Fatal(err)
			}
			p.Controller = agent
		}
		if i%11 == 5 {
			// Departures in identical-time clusters (60, 70, 80 s).
			p.LeaveAt = 60 + float64(i%3)*10
		}
		if i%13 == 8 {
			p.SampleInterval = 2.5
		}
		if err := s.Add(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEventQueueSchedulerIsTransparent: the event-queue orchestrator is
// a pure fast path — on a fleet with mixed joins, leaves, mid-run
// finishes, and identically-timed deadlines Run must produce a timeline
// and a session event stream identical, event for event, to the
// always-tick reference loop, at both a small (45) and a large (500)
// fleet, and at decide widths 1, 2 and 8 with the fan-out threshold
// lowered to two isolated decisions, so the parallel phase runs at
// nearly every epoch. The reference ticks its sessions one by one
// through Session.Tick. With exact=true it takes a full engine Step
// every tick, so every tick's allocation is a fresh water-fill; with
// exact=false it advances the engine by RunTicks(1), the tiers Run
// uses, so a difference there is the scheduler's alone.
func TestEventQueueSchedulerIsTransparent(t *testing.T) {
	lowerDecideFanout(t, 2)
	type outcome struct {
		tl     *Timeline
		events []session.Event
	}
	run := func(n int, horizon float64, width int, ref, tiered bool) outcome {
		eng, err := NewEngine(HPCLab(), 11)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(eng, 1)
		s.decideWidth = width
		var events []session.Event
		s.SetEventSink(func(e session.Event) { events = append(events, e) })
		fleetScenario(t, s, n)
		tl := runVia(s, horizon, ref, tiered)
		return outcome{tl: tl, events: events}
	}
	for _, tc := range []struct {
		n       int
		horizon float64
	}{
		{n: 45, horizon: 120},
		{n: 500, horizon: 90},
	} {
		for _, exact := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/exact=%v", tc.n, exact), func(t *testing.T) {
				ref := run(tc.n, tc.horizon, 1, true, !exact)
				if len(ref.tl.Finished) == 0 {
					t.Fatal("scenario did not exercise completion: no task finished")
				}
				// Agents are parts 1, 4, 7, …: count their decisions per
				// instant to show the lowered threshold is met.
				sawLeave, isolatedAt := false, map[float64]int{}
				for _, e := range ref.events {
					sawLeave = sawLeave || e.Kind == session.Leave
					if e.Kind == session.Decision && e.Index%3 == 1 {
						isolatedAt[e.Time]++
					}
				}
				if !sawLeave {
					t.Fatal("scenario did not exercise departure: no Leave event")
				}
				fanouts := 0
				for _, k := range isolatedAt {
					if k >= decideFanout {
						fanouts++
					}
				}
				if fanouts < 10 {
					t.Fatalf("scenario reaches the fan-out threshold at only %d instants", fanouts)
				}
				for _, width := range []int{1, 2, 8} {
					t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
						got := run(tc.n, tc.horizon, width, false, false)
						if !reflect.DeepEqual(got.tl, ref.tl) {
							t.Error("Run timeline differs from the reference timeline")
						}
						if len(got.events) != len(ref.events) {
							t.Fatalf("event counts differ: Run %d, reference %d", len(got.events), len(ref.events))
						}
						for i := range got.events {
							if !reflect.DeepEqual(got.events[i], ref.events[i]) {
								t.Fatalf("event %d differs:\n  Run:       %+v\n  reference: %+v", i, got.events[i], ref.events[i])
							}
						}
					})
				}
			})
		}
	}
}

// heapOracle mirrors a horizonQueue as a flat membership table; due and
// min queries sort (key, handle) pairs the slow, obvious way.
type heapOracle struct {
	key []float64
	in  []bool
}

func (o *heapOracle) sortedDue(now float64) []int32 {
	var due []int32
	for h, in := range o.in {
		if in && o.key[h] <= now {
			due = append(due, int32(h))
		}
	}
	sort.Slice(due, func(i, j int) bool {
		a, b := due[i], due[j]
		return o.key[a] < o.key[b] || (o.key[a] == o.key[b] && a < b)
	})
	return due
}

func (o *heapOracle) min() (float64, bool) {
	best, ok := math.Inf(1), false
	for h, in := range o.in {
		if in && (!ok || o.key[h] < best) {
			best, ok = o.key[h], true
		}
	}
	return best, ok
}

func (o *heapOracle) size() int {
	n := 0
	for _, in := range o.in {
		if in {
			n++
		}
	}
	return n
}

// TestHorizonHeapProperty drives the horizon queue with a seeded random
// sequence of push/re-key/remove/popDue operations against the
// sorted-slice oracle. Keys are drawn from a small discrete set — ±0
// and ±Inf among them — so key ties are frequent and the (key, handle)
// order within a group is exercised on nearly every pop; the stream
// also floods hundreds of handles onto one key, scatters them over
// hundreds of keys (so the key table's probe runs collide), re-keys
// into existing and new groups, removes whole groups member by member,
// and drains the queue to empty mid-stream.
func TestHorizonHeapProperty(t *testing.T) {
	const handles = 600
	rng := rand.New(rand.NewSource(20260808))
	var h horizonQueue
	h.init(handles)
	o := heapOracle{key: make([]float64, handles), in: make([]bool, handles)}

	checkInvariants := func(step int) {
		t.Helper()
		if h.len() != o.size() {
			t.Fatalf("step %d: heap len %d, oracle size %d", step, h.len(), o.size())
		}
		for hd := int32(0); hd < handles; hd++ {
			g := h.grp[hd]
			if (g >= 0) != o.in[hd] {
				t.Fatalf("step %d: handle %d membership: queue %v, oracle %v", step, hd, g >= 0, o.in[hd])
			}
			if g >= 0 && h.key[g] != o.key[hd] {
				t.Fatalf("step %d: handle %d sits in group %d keyed %v, oracle key %v", step, hd, g, h.key[g], o.key[hd])
			}
		}
		members := 0
		for i, g := range h.heap {
			if h.pos[g] != int32(i) {
				t.Fatalf("step %d: pos[%d]=%d but heap[%d]=%d", step, g, h.pos[g], i, g)
			}
			if i > 0 && !h.less(h.heap[(i-1)/2], g) {
				t.Fatalf("step %d: group heap order violated at index %d", step, i)
			}
			slot := h.slot(h.key[g])
			for h.table[slot] != g {
				if h.table[slot] < 0 {
					t.Fatalf("step %d: group %d (key %v) missing from the key table", step, g, h.key[g])
				}
				slot = (slot + 1) & (len(h.table) - 1)
			}
			h0 := h.head[g]
			if h0 < 0 {
				t.Fatalf("step %d: group %d (key %v) is empty", step, g, h.key[g])
			}
			for hd := h0; ; {
				if h.grp[hd] != g {
					t.Fatalf("step %d: handle %d on group %d's list belongs to group %d", step, hd, g, h.grp[hd])
				}
				members++
				if hd = h.next[hd]; hd == h0 {
					break
				}
			}
		}
		if members != h.len() {
			t.Fatalf("step %d: groups hold %d handles, len %d", step, members, h.len())
		}
		want, ok := o.min()
		if got := h.minKey(); ok && got != want {
			t.Fatalf("step %d: minKey %v, oracle %v", step, got, want)
		} else if !ok && !math.IsInf(got, 1) {
			t.Fatalf("step %d: minKey on empty heap = %v, want +Inf", step, got)
		}
	}

	randKey := func() float64 {
		switch k := rng.Intn(30); k {
		case 24:
			return math.Copysign(0, -1)
		case 25:
			return math.Inf(-1)
		case 26:
			return math.Inf(1)
		default:
			return float64(k%24) / 4
		}
	}
	present := func() (int32, bool) {
		hd := int32(rng.Intn(handles))
		for k := 0; k < handles; k++ {
			if o.in[(int(hd)+k)%handles] {
				return int32((int(hd) + k) % handles), true
			}
		}
		return 0, false
	}
	var buf []int32
	for step := 0; step < 20000; step++ {
		hd := int32(rng.Intn(handles))
		switch rng.Intn(12) {
		case 0, 1, 2, 3: // push (insert or re-key)
			k := randKey()
			h.push(hd, k)
			o.key[hd], o.in[hd] = k, true
		case 4: // re-key a present handle into an existing group or a new one
			if p, ok := present(); ok {
				k := 100 + float64(step)
				if q, ok := present(); ok && rng.Intn(2) == 0 {
					k = o.key[q]
				}
				h.push(p, k)
				o.key[p] = k
			}
		case 5, 6: // remove (absent handles must be a no-op)
			h.remove(hd)
			o.in[hd] = false
		case 7: // remove a whole group, its last member included
			if p, ok := present(); ok {
				k := o.key[p]
				for m := range o.in {
					if o.in[m] && o.key[m] == k {
						h.remove(int32(m))
						o.in[m] = false
					}
				}
			}
		case 8: // flood hundreds of handles onto one key, or scatter them over hundreds
			if rng.Intn(8) == 0 {
				k, scatter := randKey(), rng.Intn(2) == 0
				for m := 0; m < 300; m++ {
					if scatter {
						k = 200 + float64(rng.Intn(4000))/8
					}
					p := int32(rng.Intn(handles))
					h.push(p, k)
					o.key[p], o.in[p] = k, true
				}
			}
		default: // popDue at a random cutoff; now and then a drain
			now := randKey()
			if rng.Intn(40) == 0 {
				now = math.Inf(1)
			}
			buf = h.popDue(now, buf[:0])
			want := o.sortedDue(now)
			if !reflect.DeepEqual(append([]int32{}, buf...), append([]int32{}, want...)) {
				t.Fatalf("step %d: popDue(%v) = %v, oracle %v", step, now, buf, want)
			}
			for _, d := range want {
				o.in[d] = false
			}
		}
		if step%97 == 0 {
			checkInvariants(step)
		}
	}
	checkInvariants(20000)

	// Drain completely: the pop sequence must be the oracle's full
	// (key, handle) sort, and the heap must end empty.
	buf = h.popDue(math.Inf(1), buf[:0])
	want := o.sortedDue(math.Inf(1))
	if !reflect.DeepEqual(append([]int32{}, buf...), append([]int32{}, want...)) {
		t.Fatalf("final drain = %v, oracle %v", buf, want)
	}
	if h.len() != 0 || h.minKey() != math.Inf(1) {
		t.Fatalf("heap not empty after drain: len %d", h.len())
	}
}

// TestHorizonQueueAllocatesNothing: once sized, the queue's steady
// cycle — pop the due groups of a 10k-handle fleet, re-arm each popped
// handle one interval on — allocates nothing, the key lookup included.
func TestHorizonQueueAllocatesNothing(t *testing.T) {
	const n = 10000
	var q horizonQueue
	q.init(n)
	for hd := int32(0); hd < n; hd++ {
		q.push(hd, float64(hd%12)*0.25)
	}
	buf := make([]int32, 0, n)
	now := 0.0
	cycle := func() {
		buf = q.popDue(now, buf[:0])
		for _, hd := range buf {
			q.push(hd, now+3+0.25*float64(hd%49))
		}
		now += 0.25
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(200, cycle); a != 0 {
		t.Fatalf("steady push/pop cycle allocates %v per run, want 0", a)
	}
	if q.len() != n {
		t.Fatalf("queue holds %d handles after the cycles, want %d", q.len(), n)
	}
}
