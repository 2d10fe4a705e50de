package testbed

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/session"
	"repro/internal/transfer"
)

// TestEventHorizonSteppingIsTransparent: event-horizon stepping is a
// pure fast path — a scenario with a concurrency-cycling controller, a
// task that drains mid-run, and a competitor that joins between two
// horizons (at a time that is neither a tick boundary nor any session
// deadline) and later leaves must produce a timeline and a session
// event stream identical, event for event, to the always-tick
// reference loop.
func TestEventHorizonSteppingIsTransparent(t *testing.T) {
	type outcome struct {
		tl     *Timeline
		events []session.Event
	}
	run := func(exact bool) outcome {
		eng, err := NewEngine(HPCLab(), 7)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(eng, 1)
		var events []session.Event
		s.SetEventSink(func(e session.Event) { events = append(events, e) })
		i := 0
		t2, err := transfer.NewTask("t2", dataset.Uniform("t2", 40, int64(dataset.GB)),
			transfer.Setting{Concurrency: 4, Parallelism: 1, Pipelining: 1})
		if err != nil {
			t.Fatal(err)
		}
		parts := []Participant{
			{Task: bigTask("t1", 2), Controller: cycler{vals: []int{2, 2, 5, 5, 3}, i: &i}},
			{Task: t2},
			{Task: bigTask("t3", 1), JoinAt: 40.1, LeaveAt: 110},
		}
		for _, p := range parts {
			if err := s.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		tl := runVia(s, 150, exact, false)
		return outcome{tl: tl, events: events}
	}
	exact := run(true)
	batched := run(false)

	if _, ok := exact.tl.Finished["t2"]; !ok {
		t.Fatal("scenario did not exercise completion: t2 never finished")
	}
	if !reflect.DeepEqual(exact.tl, batched.tl) {
		t.Error("batched timeline differs from exact always-tick timeline")
	}
	if len(exact.events) != len(batched.events) {
		t.Fatalf("event count: exact %d, batched %d", len(exact.events), len(batched.events))
	}
	for i := range exact.events {
		if !reflect.DeepEqual(exact.events[i], batched.events[i]) {
			t.Fatalf("event %d differs:\nexact:   %+v\nbatched: %+v", i, exact.events[i], batched.events[i])
		}
	}
}

// TestStepUntilMatchesStepLoop: StepUntil must be bit-identical to the
// per-tick Step loop it replaces — same final clock, same smoothed
// rates, same byte counts.
func TestStepUntilMatchesStepLoop(t *testing.T) {
	build := func() *Engine {
		eng, err := NewEngine(HPCLab(), 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"a", "b"} {
			if err := eng.AddTask(bigTask(id, 4)); err != nil {
				t.Fatal(err)
			}
		}
		return eng
	}
	loop, macro := build(), build()
	const until, tick = 37.5, 0.25
	for loop.Now() < until {
		loop.Step(tick)
	}
	macro.StepUntil(until, tick)

	if loop.Now() != macro.Now() {
		t.Errorf("clock: loop %v, macro %v", loop.Now(), macro.Now())
	}
	for _, id := range []string{"a", "b"} {
		if lr, mr := loop.CurrentRate(id), macro.CurrentRate(id); lr != mr {
			t.Errorf("%s rate: loop %v, macro %v", id, lr, mr)
		}
		if lb, mb := loop.Task(id).BytesRemaining(), macro.Task(id).BytesRemaining(); lb != mb {
			t.Errorf("%s bytes left: loop %d, macro %d", id, lb, mb)
		}
	}
}

// TestRunTicksReturnsAtFileHorizon: RunTicks must hand control back on
// the tick that changes a task's ActiveFiles count, not run its full
// budget past the event.
func TestRunTicksReturnsAtFileHorizon(t *testing.T) {
	eng, err := NewEngine(HPCLab(), 1)
	if err != nil {
		t.Fatal(err)
	}
	task, err := transfer.NewTask("rt", dataset.Uniform("rt", 2, int64(dataset.GB)),
		transfer.Setting{Concurrency: 2, Parallelism: 1, Pipelining: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddTask(task); err != nil {
		t.Fatal(err)
	}
	const budget = 10000
	consumed := eng.RunTicks(budget, 0.25)
	if consumed >= budget {
		t.Fatalf("RunTicks ran its full %d-tick budget without yielding at the file event", budget)
	}
	if got := task.ActiveFiles(); got == 2 {
		t.Errorf("ActiveFiles still 2 after early return at tick %d", consumed)
	}
	if want := float64(consumed) * 0.25; eng.Now() != want {
		t.Errorf("clock %v after %d ticks, want %v", eng.Now(), consumed, want)
	}
}

// TestSubByteRatesComplete: a transfer whose per-tick byte quota is
// below one byte must still finish — the carry accumulator hands whole
// bytes to Advance once the remainder adds up (pre-fix, int64
// truncation dropped the fraction every tick and the transfer stalled
// forever).
func TestSubByteRatesComplete(t *testing.T) {
	cfg := Emulab(10e6)
	cfg.LinkCapacity = 16 // bits/s → at most 0.5 bytes per 0.25 s tick
	eng, err := NewEngine(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	task, err := transfer.NewTask("tiny", dataset.Uniform("tiny", 1, 40),
		transfer.Setting{Concurrency: 1, Parallelism: 1, Pipelining: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddTask(task); err != nil {
		t.Fatal(err)
	}
	eng.StepUntil(300, 0.25)
	if !task.Done() {
		t.Fatalf("sub-byte-rate transfer stalled: %d of 40 bytes left after %v s", task.BytesRemaining(), eng.Now())
	}
	if task.BytesRemaining() != 0 {
		t.Errorf("BytesRemaining = %d, want 0", task.BytesRemaining())
	}
}

// TestNextEvent: no tasks (or a drained engine) has no horizon in
// sight; an active task yields a finite estimate that is never in the
// past.
func TestNextEvent(t *testing.T) {
	eng, err := NewEngine(HPCLab(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if h := eng.NextEvent(); !math.IsInf(h, 1) {
		t.Errorf("empty engine NextEvent = %v, want +Inf", h)
	}
	task, err := transfer.NewTask("ne", dataset.Uniform("ne", 3, int64(dataset.GB)),
		transfer.Setting{Concurrency: 1, Parallelism: 1, Pipelining: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddTask(task); err != nil {
		t.Fatal(err)
	}
	// Before the first Step the rate is zero: no horizon yet.
	if h := eng.NextEvent(); !math.IsInf(h, 1) {
		t.Errorf("zero-rate NextEvent = %v, want +Inf", h)
	}
	eng.Step(0.25)
	h := eng.NextEvent()
	if math.IsInf(h, 1) || h < eng.Now() {
		t.Errorf("active NextEvent = %v (now %v), want finite and ≥ now", h, eng.Now())
	}
}
