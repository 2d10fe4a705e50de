package testbed

import (
	"fmt"
	"testing"
)

// benchScheduler builds a three-agent scenario on a fresh engine: the
// same orchestration shape cmd/reproduce's timeline figures run, with
// endless transfers so the run measures steady-state orchestration
// rather than completion bookkeeping.
func benchScheduler(tb testing.TB) *Scheduler {
	tb.Helper()
	eng, err := NewEngine(HPCLab(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	s := NewScheduler(eng, 1)
	for i := 0; i < 3; i++ {
		if err := s.Add(Participant{Task: bigTask(fmt.Sprintf("t%d", i), 8)}); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// steadyUntil is a day of simulated headroom per steady-run fixture.
const steadyUntil = 86400.0

// newSteadyRun builds the three-agent scenario's event-queue run and
// steps it past the join and warm-up epochs, following
// BenchmarkSchedulerRunMinute: every per-run structure (horizon queue,
// live set, session/environment arenas, presized series) is already in
// place, so 300 s more of orchestration plus simulation must make no
// heap allocation.
func newSteadyRun(tb testing.TB) *queueRun {
	tb.Helper()
	r := benchScheduler(tb).newQueueRun(steadyUntil, 0.25)
	for r.s.eng.Now() < 20 {
		r.step()
	}
	return r
}

// stepSteadyRun advances r by 300 simulated seconds.
func stepSteadyRun(tb testing.TB, r *queueRun) {
	target := r.s.eng.Now() + 300
	for r.s.eng.Now() < target {
		if !r.step() {
			tb.Fatal("run drained mid-benchmark")
		}
	}
}

// BenchmarkSchedulerRun measures 300 simulated seconds of the
// three-agent scenario on the default event-horizon stepping path:
// session ticks only at decision and warm-up deadlines, engine ticks
// batched up to the next horizon and taken as retune or replay ticks.
// TestSchedulerRunAllocatesNothing holds it at 0 allocs/op.
func BenchmarkSchedulerRun(b *testing.B) {
	r := newSteadyRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.s.eng.Now()+300 > steadyUntil {
			b.StopTimer()
			r = newSteadyRun(b)
			b.StartTimer()
		}
		stepSteadyRun(b, r)
	}
}

// TestSchedulerRunAllocatesNothing: BenchmarkSchedulerRun's op, 300 s
// of the steady three-agent run, makes no heap allocation.
func TestSchedulerRunAllocatesNothing(t *testing.T) {
	r := newSteadyRun(t)
	if a := testing.AllocsPerRun(20, func() { stepSteadyRun(t, r) }); a != 0 {
		t.Fatalf("300 s of the steady run allocates %v times, want 0", a)
	}
}
