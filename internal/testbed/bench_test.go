package testbed

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/transfer"
)

// BenchmarkEngineStepThreeTasks measures one simulation tick with three
// active multi-connection tasks — the inner loop of every experiment.
func BenchmarkEngineStepThreeTasks(b *testing.B) {
	eng, err := NewEngine(HPCLab(), 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		task, err := transfer.NewTask(fmt.Sprintf("t%d", i),
			dataset.Uniform(fmt.Sprintf("t%d", i), 100000, int64(dataset.GB)),
			transfer.Setting{Concurrency: 16, Parallelism: 2, Pipelining: 4})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.AddTask(task); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(0.25)
	}
}

// BenchmarkSchedulerRunMinute measures one scheduled minute of
// simulated time with a fixed controller, in the steady state: the
// engine, scheduler, and run are built untimed and driven past the
// join and warm-up epochs, so an op is 60 s of pure orchestration plus
// simulation. The per-run state (horizon queue, live set, timeline
// name index, event buffers) is presized by newQueueRun, so the op
// must stay at single-digit allocs/op — what remains is amortized
// growth of the recorded series.
func BenchmarkSchedulerRunMinute(b *testing.B) {
	type fixture struct {
		eng *Engine
		run *queueRun
	}
	// A day of simulated headroom per fixture; the run is rebuilt
	// (untimed) when the horizon drains mid-benchmark.
	const until = 86400.0
	build := func() fixture {
		eng, err := NewEngine(Emulab(10e6), 1)
		if err != nil {
			b.Fatal(err)
		}
		s := NewScheduler(eng, 1)
		task, err := transfer.NewTask("t", dataset.Uniform("t", 10000, int64(dataset.GB)),
			transfer.Setting{Concurrency: 10, Parallelism: 1, Pipelining: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Add(Participant{Task: task, Controller: FixedController{S: task.Setting()}}); err != nil {
			b.Fatal(err)
		}
		r := s.newQueueRun(until, 0.25)
		for eng.Now() < 20 {
			r.step()
		}
		return fixture{eng: eng, run: r}
	}
	f := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.eng.Now()+60 > until {
			b.StopTimer()
			f = build()
			b.StartTimer()
		}
		target := f.eng.Now() + 60
		for f.eng.Now() < target {
			if !f.run.step() {
				b.Fatal("run drained mid-benchmark")
			}
		}
	}
}
