package testbed

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/transfer"
)

// newFleetBench builds the 10k-session orchestration workload's run: a
// fleet of endless transfers (one shared huge-file dataset, so no
// completion events and negligible memory) with staggered joins and
// sample intervals spread over 3–15 s, so each 0.25 s tick has a few
// hundred deadlines due out of the full fleet — the regime where a loop
// that visits every session per step would dwarf the due set.
func newFleetBench(tb testing.TB, n int, seed int64) *queueRun {
	return newFleetBenchRecording(tb, n, seed, 5, 600)
}

// newFleetBenchRecording is newFleetBench with the recording interval
// and the horizon (which sizes every series reservation) chosen by the
// caller.
func newFleetBenchRecording(tb testing.TB, n int, seed int64, record, until float64) *queueRun {
	tb.Helper()
	eng, err := NewEngine(HPCLab(), seed)
	if err != nil {
		tb.Fatal(err)
	}
	s := NewScheduler(eng, record)
	ds := dataset.Uniform("fleet-bench", 64, 400*int64(dataset.TB))
	settings := []int{2, 4, 6, 8}
	for i := 0; i < n; i++ {
		task, err := transfer.NewTask(fmt.Sprintf("t%d", i), ds,
			transfer.Setting{Concurrency: settings[i%len(settings)], Parallelism: 1, Pipelining: 1})
		if err != nil {
			tb.Fatal(err)
		}
		if err := s.Add(Participant{
			Task:           task,
			JoinAt:         float64(i%12) * 0.25,
			SampleInterval: 3 + 0.25*float64(i%49),
		}); err != nil {
			tb.Fatal(err)
		}
	}
	r := s.newQueueRun(until, 0.25)
	// Drive past every join and the first decision epochs so the timed
	// loop measures the steady state, not session construction.
	for eng.Now() < 20 {
		r.step()
	}
	return r
}

// benchFleetStep times one scheduler macro-step at fleet scale.
func benchFleetStep(b *testing.B, n int) {
	benchFleetRun(b, func() *queueRun { return newFleetBench(b, n, 1) })
}

// benchFleetRun times one macro-step per op of the run build returns,
// rebuilding it (untimed) whenever its horizon drains.
func benchFleetRun(b *testing.B, build func() *queueRun) {
	r := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.step() {
			b.StopTimer()
			r = build()
			b.StartTimer()
			r.step()
		}
	}
}

// BenchmarkFleetStep10k is the tentpole number: per-macro-step cost of
// the event-queue scheduler over 10k sessions. Must run at 0 allocs/op
// — the orchestration loop touches only preallocated queue, live-set and
// series storage (TestFleetStep10kAllocatesNothing).
func BenchmarkFleetStep10k(b *testing.B) { benchFleetStep(b, 10000) }

// requireStepsAllocateNothing fails t unless a macro-step of r, once
// warm, makes no heap allocation.
func requireStepsAllocateNothing(t *testing.T, r *queueRun) {
	t.Helper()
	step := func() {
		if !r.step() {
			t.Fatal("run drained mid-measurement")
		}
	}
	if a := testing.AllocsPerRun(40, step); a != 0 {
		t.Fatalf("a macro-step allocates %v times, want 0", a)
	}
}

// TestFleetStep10kAllocatesNothing: BenchmarkFleetStep10k's op makes
// no heap allocation.
func TestFleetStep10kAllocatesNothing(t *testing.T) {
	requireStepsAllocateNothing(t, newFleetBench(t, 10000, 1))
}

// BenchmarkFleetRecordFull10k is BenchmarkFleetStep10k with the record
// boundary inside every op: full recording at an interval of one tick,
// so each macro-step also appends all 10k sessions' throughput points
// (and the due sessions' loss/concurrency points) to their series. The
// 60 s horizon keeps the reserved series at ~40 MB. Must run at
// 0 allocs/op — every point
// lands in reserved storage through the per-part series table, with no
// by-name lookup (TestFleetRecordFull10kAllocatesNothing).
func BenchmarkFleetRecordFull10k(b *testing.B) {
	benchFleetRun(b, func() *queueRun { return newFleetBenchRecording(b, 10000, 1, 0.25, 60) })
}

// TestFleetRecordFull10kAllocatesNothing: BenchmarkFleetRecordFull10k's
// op, a macro-step that appends every session's points, makes no heap
// allocation.
func TestFleetRecordFull10kAllocatesNothing(t *testing.T) {
	requireStepsAllocateNothing(t, newFleetBenchRecording(t, 10000, 1, 0.25, 60))
}

// BenchmarkFleetStep1k pins the scaling story beside
// BenchmarkFleetStep10k: the queue path's overhead above the engine
// grows with the due set, not with the fleet.
func BenchmarkFleetStep1k(b *testing.B) { benchFleetStep(b, 1000) }

// BenchmarkFleetStep100k is the sharded-fleet number: one macro-step of
// every shard of a 100k-session fleet partitioned into 10 independent
// 10k-session bottleneck domains — the 10 × 10 Gbps multi-bottleneck
// deliverable. Each shard runs its own engine and event-queue run
// (distinct seeds, as ShardSet builds them); one op advances the whole
// fleet by one macro-step per shard. Steady state must stay at
// 0 allocs/op — the shard layer adds no per-step heap traffic over the
// single-engine loop.
func BenchmarkFleetStep100k(b *testing.B) {
	const shards, perShard = 10, 10000
	build := func() []*queueRun {
		rs := make([]*queueRun, shards)
		for s := range rs {
			rs[s] = newFleetBench(b, perShard, int64(1+s))
		}
		return rs
	}
	rs := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rs {
			if !r.step() {
				b.StopTimer()
				rs = build()
				b.StartTimer()
				break
			}
		}
	}
}

// BenchmarkFleetBlockJoins times the join window of a roster laid out
// the way a scenario document expands it: 30k parts in three specs of
// 10k, each spec's parts contiguous, joining 1 ms apart from offsets
// 0, 0.3 and 0.6 ms — so consecutive joins come from different specs
// and land far apart in part order. One op builds the scheduler
// (untimed) and runs its 10 s join window with recording off; every
// session joins inside it.
func BenchmarkFleetBlockJoins(b *testing.B) {
	const perSpec, stagger = 10000, 0.001
	ds := dataset.Uniform("fleet-bench", 64, 400*int64(dataset.TB))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := NewEngine(HPCLab(), 1)
		if err != nil {
			b.Fatal(err)
		}
		s := NewScheduler(eng, 1)
		s.SetRecording(RecordOff, nil)
		s.Reserve(3 * perSpec)
		for k := 0; k < 3; k++ {
			for j := 0; j < perSpec; j++ {
				task, err := transfer.NewTask(fmt.Sprintf("s%d-%d", k, j), ds,
					transfer.Setting{Concurrency: 1 + j%4, Parallelism: 1, Pipelining: 1})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Add(Participant{Task: task, JoinAt: 0.0003*float64(k) + stagger*float64(j)}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StartTimer()
		s.Run(perSpec*stagger, 0.25)
	}
}

// newFleetEngine builds the bare engine under the fleet benchmarks: n
// endless tasks (the newFleetBench dataset and settings) registered
// directly, advanced 40 full steps into steady state.
func newFleetEngine(b testing.TB, n int) *Engine {
	b.Helper()
	eng, err := NewEngine(HPCLab(), 1)
	if err != nil {
		b.Fatal(err)
	}
	ds := dataset.Uniform("fleet-bench", 64, 400*int64(dataset.TB))
	settings := []int{2, 4, 6, 8}
	for i := 0; i < n; i++ {
		task, err := transfer.NewTask(fmt.Sprintf("t%d", i), ds,
			transfer.Setting{Concurrency: settings[i%len(settings)], Parallelism: 1, Pipelining: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.AddTask(task); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		eng.Step(0.25)
	}
	return eng
}

// BenchmarkFleetEngine10k is the floor under the scheduler: the
// bare engine advancing the same 10k tasks one full step per op, no
// orchestration at all. Scheduler overhead is the Step benchmarks
// minus this.
func BenchmarkFleetEngine10k(b *testing.B) {
	eng := newFleetEngine(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(0.25)
	}
}

// BenchmarkFleetRetuneTick10k is the fleet's common tick: the same 10k
// tasks, 16 % of them retuned (a rotating window of 1 600 tasks given a
// new concurrency, as a fleet's due agents are) before one RunTicks
// tick, which takes the retune tier — the retuned demands edited in
// place, one refill, one fold. The SetSetting calls are inside the
// timed op. Must run at 0 allocs/op.
func BenchmarkFleetRetuneTick10k(b *testing.B) {
	const n, retuned = 10000, 1600
	eng := newFleetEngine(b, n)
	tasks := make([]*transfer.Task, n)
	for i, id := range eng.TaskIDs() {
		tasks[i] = eng.Task(id)
	}
	settings := []int{2, 4, 6, 8}
	tick := func(i int) {
		for j := 0; j < retuned; j++ {
			k := (i*retuned + j) % n
			set := transfer.Setting{Concurrency: settings[(k+i+1)%len(settings)], Parallelism: 1, Pipelining: 1}
			if err := tasks[k].SetSetting(set); err != nil {
				b.Fatal(err)
			}
		}
		eng.RunTicks(1, 0.25)
	}
	tick(0) // sizes the retune scratch
	before := eng.TickCounts().Retune
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick(i + 1)
	}
	b.StopTimer()
	if got := eng.TickCounts().Retune - before; got != uint64(b.N) {
		b.Fatalf("%d of %d ticks took the retune tier", got, b.N)
	}
}
