package testbed

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/session"
	"repro/internal/transfer"
)

// oneShard is a single-shard spec of n endless transfers that all join
// at t=0 on the default 3 s cadence, so every session is due on the
// same ticks; controller(i) supplies part i's controller.
func oneShard(t testing.TB, n int, controller func(i int) Controller) []ShardSpec {
	t.Helper()
	ds := dataset.Uniform("decide-fleet", 64, 400*int64(dataset.TB))
	spec := ShardSpec{Key: "one", Config: HPCLab(), Seed: 3}
	for i := 0; i < n; i++ {
		task, err := transfer.NewTask(fmt.Sprintf("p%04d", i), ds, transfer.Setting{Concurrency: 1 + i%4, Parallelism: 1, Pipelining: 1})
		if err != nil {
			t.Fatal(err)
		}
		spec.Parts = append(spec.Parts, Participant{Task: task, Controller: controller(i)})
	}
	return []ShardSpec{spec}
}

// sharedTally is a controller in the shape of the benchmark's traced
// wrapper: it bumps plain, unsynchronised counters shared by every
// instance, relying on "a shard steps on one goroutine". It does not
// declare itself isolated.
type sharedTally struct {
	part  int
	calls *int
	seen  *[][2]float64 // (sample time, part) per call, in call order
}

func (c sharedTally) Decide(s transfer.Sample) transfer.Setting {
	*c.calls++
	*c.seen = append(*c.seen, [2]float64{s.Time, float64(c.part)})
	return s.Setting
}

// TestUndeclaredControllersStayOnTheShardGoroutine is the contract the
// parallel decide phase must not break: in a 2 000-session single-shard
// run at decide width 8, with a thousand isolated Falcon agents fanned
// out at every epoch (the production threshold, not a lowered one), the
// thousand controllers that did not declare isolation are still called
// one at a time, in ascending part order within each step, exactly once
// per epoch — so their shared plain counters need no lock. Run under
// -race, which is what would see a second goroutine touch them.
func TestUndeclaredControllersStayOnTheShardGoroutine(t *testing.T) {
	const n = 2000
	var calls int
	var seen [][2]float64
	ss, err := NewShardSet(oneShard(t, n, func(i int) Controller {
		if i%2 == 1 {
			return sharedTally{part: i, calls: &calls, seen: &seen}
		}
		agent, err := core.NewFleetAgent([]string{"hc", "gd", "bo"}[i/2%3], 8, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		return agent
	}), 1)
	if err != nil {
		t.Fatal(err)
	}
	ss.SetWorkers(8)
	if got := ss.DecideWidth(); got != 8 {
		t.Fatalf("one shard on 8 workers decides %d wide, want 8", got)
	}
	decisions := 0
	ss.SetEventSink(func(e session.Event) {
		if e.Kind == session.Decision && e.Index%2 == 1 {
			decisions++
		}
	})
	if _, err := ss.Run(10, 0.25); err != nil {
		t.Fatal(err)
	}
	if want := 3 * n / 2; calls != want || decisions != want || len(seen) != want {
		t.Fatalf("undeclared controllers: %d calls, %d recorded, %d Decision events, want %d of each (epochs at 3, 6, 9 s)",
			calls, len(seen), decisions, want)
	}
	for k := 1; k < len(seen); k++ {
		a, b := seen[k-1], seen[k]
		if b[0] < a[0] || (b[0] == a[0] && b[1] <= a[1]) {
			t.Fatalf("call %d (t=%v, part %v) follows call %d (t=%v, part %v): not ascending part order within a step",
				k, b[0], b[1], k-1, a[0], a[1])
		}
	}
}

// isoBomb declares itself isolated and panics on its second decision.
type isoBomb struct {
	armed bool
	calls *int
}

func (b isoBomb) Decide(s transfer.Sample) transfer.Setting {
	*b.calls++
	if b.armed && *b.calls == 2 {
		panic("boom")
	}
	return s.Setting
}
func (isoBomb) DecideIsolated() bool { return true }

// TestParallelControllerPanicSurfacesOnDriver: a controller that panics
// inside the parallel phase does not take the process down from a
// helper goroutine — Run panics once, on the goroutine that called it,
// naming the task, after every helper has stopped; none outlives it.
func TestParallelControllerPanicSurfacesOnDriver(t *testing.T) {
	ss, err := NewShardSet(oneShard(t, 300, func(i int) Controller {
		return isoBomb{armed: i == 137, calls: new(int)}
	}), 1)
	if err != nil {
		t.Fatal(err)
	}
	ss.SetWorkers(8)
	before := runtime.NumGoroutine()
	var got any
	func() {
		defer func() { got = recover() }()
		ss.Run(10, 0.25)
	}()
	msg, _ := got.(string)
	if !strings.Contains(msg, `testbed: controller for "p0137" panicked: boom`) {
		t.Fatalf("Run panicked with %v, want the controller's panic naming task p0137", got)
	}
	// A helper has passed its last synchronisation when Run returns but
	// may not have left the scheduler yet.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before Run, %d after: helpers leaked", before, after)
	}
}

// isoInvalid declares itself isolated and, when armed, returns an
// invalid setting (no streams) on its second decision.
type isoInvalid struct {
	armed bool
	calls *int
}

func (b isoInvalid) Decide(s transfer.Sample) transfer.Setting {
	*b.calls++
	if b.armed && *b.calls == 2 {
		return transfer.Setting{}
	}
	return s.Setting
}
func (isoInvalid) DecideIsolated() bool { return true }

// TestInvalidSettingInFanoutSurfacesOnCaller: a setting that fails to
// apply is found by the commit, which runs on the scheduler's goroutine
// while the helpers still decide later chunks. Run panics once, on the
// goroutine that called it, naming the task, and only after every
// helper has stopped; none outlives it.
func TestInvalidSettingInFanoutSurfacesOnCaller(t *testing.T) {
	ss, err := NewShardSet(oneShard(t, 300, func(i int) Controller {
		return isoInvalid{armed: i == 137, calls: new(int)}
	}), 1)
	if err != nil {
		t.Fatal(err)
	}
	ss.SetWorkers(8)
	before := runtime.NumGoroutine()
	var got any
	func() {
		defer func() { got = recover() }()
		ss.Run(10, 0.25)
	}()
	msg, _ := got.(string)
	if !strings.HasPrefix(msg, `testbed: controller for "p0137" produced invalid setting: `) {
		t.Fatalf("Run panicked with %v, want the invalid setting of task p0137", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before Run, %d after: helpers leaked", before, after)
	}
}

// TestDecideWidthRule: the decide width is the worker budget divided
// among the shards stepping at once — derived, with no setter — and a
// budget of 0 is the parallel harness default, as SetWorkers documents.
func TestDecideWidthRule(t *testing.T) {
	old := parallel.Workers()
	defer parallel.SetWorkers(old)
	parallel.SetWorkers(4)
	for _, tc := range []struct{ workers, shards, width int }{
		{1, 1, 1}, {2, 1, 2}, {8, 1, 8},
		{2, 4, 1}, {4, 4, 1}, {8, 4, 2}, {32, 4, 8}, {3, 2, 1},
		{0, 1, 4}, {0, 4, 1}, {0, 2, 2}, {-3, 1, 1},
	} {
		ss, err := NewShardSet(shardFixture(t, tc.shards), 1)
		if err != nil {
			t.Fatal(err)
		}
		ss.SetWorkers(tc.workers)
		if got := ss.DecideWidth(); got != tc.width {
			t.Errorf("%d workers over %d shards decide %d wide, want %d", tc.workers, tc.shards, got, tc.width)
		}
		sched, err := ss.build(&ss.shards[0], nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sched.decideWidth != tc.width {
			t.Errorf("%d workers over %d shards: scheduler built %d wide, want %d", tc.workers, tc.shards, sched.decideWidth, tc.width)
		}
	}
}

// BenchmarkDecideFanout is the measurement behind decideFanout: one
// 300 s run (99 epochs, so the BO windows are full for most of it) of n
// Falcon agents — hc, gd and bo in turn, the fleet mix — that are all
// due on the same ticks, decided inline (width 1) and fanned out over
// two goroutines at every epoch (width 2, threshold forced to 1). The
// threshold belongs where width 2 stops losing to width 1.
func BenchmarkDecideFanout(b *testing.B) {
	lowerDecideFanout(b, 1)
	for _, n := range []int{32, 64, 96, 128, 192, 256, 512} {
		for _, width := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/width=%d", n, width), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					ss, err := NewShardSet(oneShard(b, n, func(k int) Controller {
						agent, err := core.NewFleetAgent([]string{"hc", "gd", "bo"}[k%3], 8, int64(k))
						if err != nil {
							b.Fatal(err)
						}
						return agent
					}), 1)
					if err != nil {
						b.Fatal(err)
					}
					ss.SetRecording(RecordAggregate, discardRecorder{})
					ss.SetWorkers(width)
					b.StartTimer()
					if _, err := ss.Run(300, 0.25); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
