package testbed

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/transfer"
)

// wideTask is bigTask with an explicit parallelism: distinct
// parallelism means a distinct per-connection cap, hence a distinct
// flow class.
func wideTask(id string, concurrency, parallelism int) *transfer.Task {
	task, err := transfer.NewTask(id, dataset.Uniform(id, 5000, int64(dataset.GB)),
		transfer.Setting{Concurrency: concurrency, Parallelism: parallelism, Pipelining: 1})
	if err != nil {
		panic(err)
	}
	return task
}

// TestClassAllocIsTransparent: the class partition the allocator keeps
// across calls is a pure cache — a scenario with mixed parallelism
// settings (several distinct per-connection caps, so multiple classes
// coexist and tasks move between them), joins, leaves, and a
// concurrency-cycling controller must produce exactly the same timeline
// under Run as on the always-tick reference loop, which re-runs the
// water-fill every tick. The per-flow oracle for the fill itself lives
// in the netsim tests.
func TestClassAllocIsTransparent(t *testing.T) {
	run := func(ref bool) *Timeline {
		eng, err := NewEngine(HPCLab(), 7)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(eng, 1)
		i := 0
		parts := []Participant{
			{Task: bigTask("t1", 2), Controller: cycler{vals: []int{2, 2, 5, 5, 3}, i: &i}},
			{Task: wideTask("t2", 4, 2)},
			{Task: wideTask("t3", 4, 2)}, // same setting as t2: one shared class
			{Task: wideTask("t4", 1, 4), JoinAt: 40, LeaveAt: 110},
		}
		for _, p := range parts {
			if err := s.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		return runVia(s, 150, ref, false)
	}
	if !reflect.DeepEqual(run(false), run(true)) {
		t.Fatal("Run timeline differs from the per-tick reference")
	}
}

// TestAllocClassesCollapse: tasks at identical settings share one flow
// class, so a fleet of same-setting transfers presents O(1) classes to
// the water-fill regardless of task count.
func TestAllocClassesCollapse(t *testing.T) {
	eng, err := NewEngine(HPCLab(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("t%d", i)
		task, err := transfer.NewTask(id, dataset.Uniform(id, 100, int64(dataset.GB)),
			transfer.Setting{Concurrency: 4, Parallelism: 1, Pipelining: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	eng.Step(0.25)
	if got := eng.AllocClasses(); got != 1 {
		t.Fatalf("AllocClasses() = %d for 30 identical tasks, want 1", got)
	}
	// A concurrency-only retune keeps the per-connection cap, so the
	// task stays in the shared class with a different weight.
	if err := eng.Task("t0").SetSetting(transfer.Setting{Concurrency: 9, Parallelism: 1, Pipelining: 1}); err != nil {
		t.Fatal(err)
	}
	eng.Step(0.25)
	if got := eng.AllocClasses(); got != 1 {
		t.Fatalf("AllocClasses() = %d after concurrency retune, want 1", got)
	}
	// A parallelism retune changes the per-connection cap: the task
	// splits into its own class.
	if err := eng.Task("t0").SetSetting(transfer.Setting{Concurrency: 9, Parallelism: 2, Pipelining: 1}); err != nil {
		t.Fatal(err)
	}
	eng.Step(0.25)
	if got := eng.AllocClasses(); got != 2 {
		t.Fatalf("AllocClasses() = %d after parallelism retune, want 2", got)
	}
}

// BenchmarkFleetStep measures the full step at fleet scale: 256
// concurrent tasks drawn from four settings (four flow classes), every
// tick paying the demand build and class water-fill, as a fleet's
// joins, leaves and file-count horizons do.
// TestFleetStepAllocatesNothing holds it at 0 allocs/op.
func BenchmarkFleetStep(b *testing.B) {
	eng := newClassFleetEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(0.25)
	}
}

// newClassFleetEngine builds BenchmarkFleetStep's engine: 256 tasks in
// four settings, stepped 40 ticks into steady state.
func newClassFleetEngine(tb testing.TB) *Engine {
	tb.Helper()
	eng, err := NewEngine(HPCLab(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	settings := []int{2, 4, 6, 8}
	for i := 0; i < 256; i++ {
		id := fmt.Sprintf("t%d", i)
		task, err := transfer.NewTask(id, dataset.Uniform(id, 20000, 400*int64(dataset.TB)),
			transfer.Setting{Concurrency: settings[i%len(settings)], Parallelism: 1, Pipelining: 1})
		if err != nil {
			tb.Fatal(err)
		}
		if err := eng.AddTask(task); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		eng.Step(0.25)
	}
	return eng
}

// TestFleetStepAllocatesNothing: BenchmarkFleetStep's op, a full
// demand build and class water-fill, makes no heap allocation.
func TestFleetStepAllocatesNothing(t *testing.T) {
	eng := newClassFleetEngine(t)
	if a := testing.AllocsPerRun(20, func() { eng.Step(0.25) }); a != 0 {
		t.Fatalf("a full fleet step allocates %v times, want 0", a)
	}
}
