package testbed

import (
	"fmt"
	"testing"
)

// benchScheduler builds a three-agent scenario on a fresh engine: the
// same orchestration shape cmd/reproduce's timeline figures run, with
// endless transfers so the run measures steady-state orchestration
// rather than completion bookkeeping.
func benchScheduler(b *testing.B) *Scheduler {
	b.Helper()
	eng, err := NewEngine(HPCLab(), 1)
	if err != nil {
		b.Fatal(err)
	}
	s := NewScheduler(eng, 1)
	for i := 0; i < 3; i++ {
		if err := s.Add(Participant{Task: bigTask(fmt.Sprintf("t%d", i), 8)}); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// benchSteadyRun drives the three-agent scenario in the steady state,
// following BenchmarkSchedulerRunMinute: the scheduler and run are
// built untimed and stepped past the join and warm-up epochs, so an op
// is 300 s of pure orchestration plus simulation with every per-run
// structure (horizon queue, live set, session/environment arenas,
// presized series) already in place — the op must stay at zero
// allocs/op. With ref set the run is the always-tick reference loop
// instead of Run's event-queue run.
func benchSteadyRun(b *testing.B, ref bool) {
	type fixture struct {
		eng *Engine
		run interface{ step() bool }
	}
	// A day of simulated headroom per fixture; the run is rebuilt
	// (untimed) when the horizon drains mid-benchmark.
	const until = 86400.0
	build := func() fixture {
		s := benchScheduler(b)
		var r interface{ step() bool }
		if ref {
			r = newRefRun(s, until, 0.25, false)
		} else {
			r = s.newQueueRun(until, 0.25)
		}
		for s.eng.Now() < 20 {
			r.step()
		}
		return fixture{eng: s.eng, run: r}
	}
	f := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.eng.Now()+300 > until {
			b.StopTimer()
			f = build()
			b.StartTimer()
		}
		target := f.eng.Now() + 300
		for f.eng.Now() < target {
			if !f.run.step() {
				b.Fatal("run drained mid-benchmark")
			}
		}
	}
}

// BenchmarkSchedulerRun measures 300 simulated seconds of the
// three-agent scenario on the default event-horizon stepping path:
// session ticks only at decision and warm-up deadlines, engine ticks
// batched up to the next horizon and taken as retune or replay ticks.
func BenchmarkSchedulerRun(b *testing.B) {
	benchSteadyRun(b, false)
}

// BenchmarkSchedulerRunExact measures the identical 300 s on the
// always-tick reference loop: every session ticked and a full engine
// Step taken on every 0.25 s tick. The ratio to BenchmarkSchedulerRun
// is the stepping layer's speedup; the outputs are byte-identical (see
// TestEventHorizonSteppingIsTransparent).
func BenchmarkSchedulerRunExact(b *testing.B) {
	benchSteadyRun(b, true)
}
