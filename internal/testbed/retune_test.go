package testbed

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/iosim"
	"repro/internal/session"
	"repro/internal/transfer"
)

// TestRunTicksHonoursOutOfBandRetune: a generation bump made between
// RunTicks calls must take effect on the very next tick exactly as it
// does under Step, whichever way it came — SetSetting on an active task
// (a concurrency, parallelism and pipelining change, then a same-value
// set), Extend inside an active task's tail (more files, so more
// connections and new progress mirrors), or Extend reviving a drained
// task — and a mutation scheduled for the current instant. One engine
// advances by RunTicks(1); its twin by Step, a full
// step with a fresh allocation every tick. Every tick, every task's
// rate, loss and bytes and the drained list must agree bitwise, and the
// RunTicks engine must have taken the tier, and for a full step the
// cause, each bump calls for.
func TestRunTicksHonoursOutOfBandRetune(t *testing.T) {
	const dt = 0.25
	ids := []string{"a", "b", "c"}
	build := func() *Engine {
		eng, err := NewEngine(HPCLab(), 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range []*transfer.Task{
			bigTask("a", 4),
			newTask(t, "b", dataset.Uniform("b", 3, 40*int64(dataset.GB)), 4),
			newTask(t, "c", dataset.Uniform("c", 2, int64(dataset.GB)/5), 2),
		} {
			if err := eng.AddTask(task); err != nil {
				t.Fatal(err)
			}
		}
		return eng
	}
	ticked, stepped := build(), build()
	both := func(f func(e *Engine) error) {
		t.Helper()
		for _, e := range []*Engine{ticked, stepped} {
			if err := f(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	extend := func(id string) func(e *Engine) error {
		return func(e *Engine) error {
			if err := e.Task(id).Extend(1, int64(dataset.GB)); err != nil {
				return err
			}
			return e.Task(id).Extend(1, 2*int64(dataset.GB))
		}
	}
	setting := func(s transfer.Setting) func(e *Engine) error {
		return func(e *Engine) error { return e.Task("a").SetSetting(s) }
	}
	halveLink := func(e *Engine) error {
		return e.ScheduleMutation(Mutation{At: e.Now(), Kind: MutLinkCapacity, Capacity: e.Config().LinkCapacity / 2})
	}

	// Each bump, the tick it lands before, and the tier (and for a full
	// step the cause) that tick must take on the RunTicks engine.
	type bump struct {
		tick  int
		name  string
		do    func(e *Engine) error
		tier  tickTier
		cause fullCause
	}
	bumps := []bump{
		{20, "SetSetting on an active task", setting(transfer.Setting{Concurrency: 7, Parallelism: 2, Pipelining: 3}), tierRetune, fresh},
		{24, "same-value SetSetting", setting(transfer.Setting{Concurrency: 7, Parallelism: 2, Pipelining: 3}), tierRetune, fresh},
		{30, "Extend inside an active task's tail", extend("b"), tierRetune, fresh},
		{40, "Extend of a drained task", extend("c"), tierFull, causeFallback},
		{60, "a mutation due now", halveLink, tierFull, causeMutation},
	}
	next := 0
	for tick := 0; tick < 80; tick++ {
		var before TickCounts
		if next < len(bumps) && bumps[next].tick == tick {
			b := bumps[next]
			switch b.name {
			case "Extend inside an active task's tail":
				if task := ticked.Task("b"); task.Done() || task.ActiveFiles() >= task.Setting().Concurrency {
					t.Fatalf("tick %d: b is not inside its tail (done %v, active files %d)", tick, task.Done(), task.ActiveFiles())
				}
			case "Extend of a drained task":
				if !ticked.Task("c").Done() {
					t.Fatalf("tick %d: c has not drained", tick)
				}
			}
			both(b.do)
			before = ticked.TickCounts()
		}
		ticked.RunTicks(1, dt)
		stepped.Step(dt)

		if next < len(bumps) && bumps[next].tick == tick {
			b := bumps[next]
			after := ticked.TickCounts()
			took := map[tickTier]uint64{
				tierFull:   after.Full - before.Full,
				tierRetune: after.Retune - before.Retune,
				tierReplay: after.Replay - before.Replay,
			}
			if took[b.tier] != 1 {
				t.Errorf("tick %d (%s): tick counts moved %+v → %+v, want one tick of tier %d", tick, b.name, before, after, b.tier)
			}
			if b.tier == tierFull && fullByCause(after)[b.cause]-fullByCause(before)[b.cause] != 1 {
				t.Errorf("tick %d (%s): tick counts moved %+v → %+v, want one full step of cause %d", tick, b.name, before, after, b.cause)
			}
			next++
		}
		if ticked.Now() != stepped.Now() {
			t.Fatalf("tick %d: clock %v vs %v", tick, ticked.Now(), stepped.Now())
		}
		for _, id := range ids {
			r1, r2 := ticked.CurrentRate(id), stepped.CurrentRate(id)
			l1, l2 := ticked.CurrentLoss(id), stepped.CurrentLoss(id)
			b1, b2 := ticked.Task(id).BytesRemaining(), stepped.Task(id).BytesRemaining()
			if math.Float64bits(r1) != math.Float64bits(r2) || math.Float64bits(l1) != math.Float64bits(l2) || b1 != b2 {
				t.Fatalf("tick %d task %s: RunTicks rate %v loss %v bytes left %d; Step rate %v loss %v bytes left %d",
					tick, id, r1, l1, b1, r2, l2, b2)
			}
		}
		if !reflect.DeepEqual(ticked.Drained(), stepped.Drained()) {
			t.Fatalf("tick %d: drained %v vs %v", tick, ticked.Drained(), stepped.Drained())
		}
	}
	if next != len(bumps) {
		t.Fatalf("only %d of %d bumps ran", next, len(bumps))
	}
	if ticked.Task("c").Done() {
		t.Error("the revived task drained again within the run; the check after its Extend is too short to see it transfer")
	}
	for _, e := range []*Engine{ticked, stepped} {
		if c := e.TickCounts(); c.Full != sumFull(c) {
			t.Errorf("full steps %d ≠ the sum of their causes %+v", c.Full, c)
		}
	}
	if c := stepped.TickCounts(); c.Stepped != 80 {
		t.Errorf("the Step engine counted %+v, want 80 Stepped", c)
	}
}

// TestRetuneRefillsWhenOnlyCapacitiesMove: a settings change can move
// the contention capacities without moving any demand. Here a task
// trades parallelism for concurrency at the same connection count on a
// TCP-window-bound path, so its per-connection cap and weight stay put
// while the contended store's thread count moves. The retune tick must
// refill under the new capacities, and refill again when a second
// change moves them back. A twin engine advanced by Step must agree
// bitwise every tick.
func TestRetuneRefillsWhenOnlyCapacitiesMove(t *testing.T) {
	cfg := StampedeCometWAN()
	cfg.RTT = 0.1 // streams window-bound at ≈671 Mbit/s, below PerProcCap/P for P ≤ 3
	cfg.SrcStore = iosim.Store{Name: "contended", PerProcCap: 2.2e9, AggregateCap: 10e9, ContentionRate: 0.01}
	build := func() *Engine {
		eng, err := NewEngine(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range []*transfer.Task{wideTask("a", 8, 2), wideTask("b", 20, 1)} {
			if err := eng.AddTask(task); err != nil {
				t.Fatal(err)
			}
		}
		return eng
	}
	ticked, stepped := build(), build()
	sets := map[int]transfer.Setting{
		10: {Concurrency: 16, Parallelism: 1, Pipelining: 1},
		20: {Concurrency: 8, Parallelism: 2, Pipelining: 1},
	}
	for tick := 0; tick < 30; tick++ {
		set, retuned := sets[tick]
		if retuned {
			for _, e := range []*Engine{ticked, stepped} {
				if err := e.Task("a").SetSetting(set); err != nil {
					t.Fatal(err)
				}
			}
		}
		before := ticked.TickCounts().Retune
		ticked.RunTicks(1, 0.25)
		stepped.Step(0.25)
		if retuned && ticked.TickCounts().Retune != before+1 {
			t.Fatalf("tick %d: the settings change took %+v, want a retune tick", tick, ticked.TickCounts())
		}
		for _, id := range []string{"a", "b"} {
			r1, r2 := ticked.CurrentRate(id), stepped.CurrentRate(id)
			if math.Float64bits(r1) != math.Float64bits(r2) {
				t.Fatalf("tick %d task %s: RunTicks rate %v, Step rate %v", tick, id, r1, r2)
			}
		}
	}
}

// fullByCause returns c's full-step counts indexed by cause.
func fullByCause(c TickCounts) [fresh]uint64 {
	return [fresh]uint64{
		causeJoinLeave: c.JoinLeave,
		causeHorizon:   c.Horizon,
		causeMutation:  c.Mutation,
		causeFallback:  c.Fallback,
		causeStepped:   c.Stepped,
	}
}

// sumFull returns the sum of c's full steps over their causes.
func sumFull(c TickCounts) uint64 {
	sum := uint64(0)
	for _, n := range fullByCause(c) {
		sum += n
	}
	return sum
}

// TestSettingsOnlyTicksTakeTheRetuneTier: a staggered 200-task fleet
// with no file horizons (endless transfers), no leaves and no
// mutations, whose controllers retune every epoch, takes a full step
// only on the ticks right after a join; every other tick is a retune
// tick or a replay. Its timeline and event stream are identical to the
// always-tick reference loop's.
func TestSettingsOnlyTicksTakeTheRetuneTier(t *testing.T) {
	const (
		n      = 200
		joins  = 20 // distinct join ticks
		until  = 60.0
		record = 1.0
	)
	type outcome struct {
		tl     *Timeline
		events []session.Event
		ticks  TickCounts
	}
	run := func(ref bool) outcome {
		eng, err := NewEngine(HPCLab(), 3)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(eng, record)
		var events []session.Event
		s.SetEventSink(func(e session.Event) { events = append(events, e) })
		ds := dataset.Uniform("retune-fleet", 64, 400*int64(dataset.TB))
		counters := make([]int, n)
		for i := 0; i < n; i++ {
			task := newTask(t, fmt.Sprintf("t%03d", i), ds, 2+i%4)
			if err := s.Add(Participant{
				Task:           task,
				Controller:     cycler{vals: []int{3, 5, 2, 8, 4}, i: &counters[i]},
				JoinAt:         float64(i%joins) * 0.25,
				SampleInterval: 1 + 0.25*float64(i%7),
			}); err != nil {
				t.Fatal(err)
			}
		}
		tl := runVia(s, until, ref, false)
		return outcome{tl: tl, events: events, ticks: eng.TickCounts()}
	}
	ref, got := run(true), run(false)

	const ticks = uint64(until / 0.25)
	if c := got.ticks; c.Full != joins || c.JoinLeave != joins || c.Full+c.Retune+c.Replay != ticks || c.Retune == 0 {
		t.Errorf("tick counts %+v, want %d full, all joins (one per join tick), %d in all, and some retune ticks", c, joins, ticks)
	}
	if c := ref.ticks; c.Full != ticks {
		t.Errorf("reference loop tick counts %+v, want %d full steps", c, ticks)
	}
	if !reflect.DeepEqual(ref.tl, got.tl) {
		t.Error("timeline differs from the always-tick reference loop's")
	}
	if len(ref.events) != len(got.events) {
		t.Fatalf("event count: reference %d, Run %d", len(ref.events), len(got.events))
	}
	for i := range ref.events {
		if !reflect.DeepEqual(ref.events[i], got.events[i]) {
			t.Fatalf("event %d differs:\nreference: %+v\nRun:       %+v", i, ref.events[i], got.events[i])
		}
	}
}

// TestRetuneTickAllocatesNothing: once its scratch is sized, a retune
// tick — settings moved on a sixth of a 600-task engine, demands edited
// in place, one refill, one fold — makes no heap allocation.
func TestRetuneTickAllocatesNothing(t *testing.T) {
	const n, retuned = 600, 100
	eng := newFleetEngine(t, n)
	tasks := make([]*transfer.Task, n)
	for i, id := range eng.TaskIDs() {
		tasks[i] = eng.Task(id)
	}
	before := eng.TickCounts().Retune
	round := 0
	allocs := testing.AllocsPerRun(20, func() {
		round++
		for j := 0; j < retuned; j++ {
			k := (round*retuned + j) % n
			if err := tasks[k].SetSetting(transfer.Setting{Concurrency: 1 + (k+round)%8, Parallelism: 1, Pipelining: 1}); err != nil {
				t.Fatal(err)
			}
		}
		eng.RunTicks(1, 0.25)
	})
	if allocs != 0 {
		t.Errorf("retune tick allocated %v times", allocs)
	}
	if got := eng.TickCounts().Retune - before; got != uint64(round) {
		t.Errorf("%d of %d ticks took the retune tier", got, round)
	}
}

// newTask builds a parallelism-1, pipelining-1 task over ds.
func newTask(t *testing.T, id string, ds *dataset.Dataset, concurrency int) *transfer.Task {
	t.Helper()
	task, err := transfer.NewTask(id, ds, transfer.Setting{Concurrency: concurrency, Parallelism: 1, Pipelining: 1})
	if err != nil {
		t.Fatal(err)
	}
	return task
}
