package testbed

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/session"
	"repro/internal/transfer"
)

// TestEngineDrainedMatchesOracle drives a bare engine through a seeded
// random churn of adds, mid-run removals, and advances, and checks
// after every advance that Drained() reports exactly the tasks whose
// Done() flipped during it — the polling oracle the drained list
// replaced. Tiny datasets make some tasks drain on the very tick they
// were added (the same-tick join+finish edge), and the whole run is
// replayed to pin that the drained sequence is deterministic,
// including its order.
func TestEngineDrainedMatchesOracle(t *testing.T) {
	run := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		eng, err := NewEngine(HPCLab(), seed)
		if err != nil {
			t.Fatal(err)
		}
		live := map[string]*transfer.Task{}
		var liveIDs []string // sorted for deterministic random picks
		var drainedLog []string
		nextID := 0
		for iter := 0; iter < 400; iter++ {
			// Churn: add a task (sometimes tiny, draining within a
			// tick; sometimes large), occasionally remove one mid-run.
			if len(live) < 12 && rng.Intn(3) > 0 {
				id := fmt.Sprintf("dr%03d", nextID)
				nextID++
				size := int64(1_000_000_000)
				files := 40
				if rng.Intn(3) == 0 {
					size, files = 1000, 1 // drains on the next tick
				}
				task, err := transfer.NewTask(id, dataset.Uniform(id, files, size),
					transfer.Setting{Concurrency: 1 + rng.Intn(4), Parallelism: 1, Pipelining: 1})
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.AddTask(task); err != nil {
					t.Fatal(err)
				}
				live[id] = task
				liveIDs = append(liveIDs, id)
				sort.Strings(liveIDs)
			}
			if len(liveIDs) > 0 && rng.Intn(6) == 0 {
				id := liveIDs[rng.Intn(len(liveIDs))]
				eng.RemoveTask(id)
				delete(live, id)
				liveIDs = remove(liveIDs, id)
			}

			before := map[string]bool{}
			for id, task := range live {
				before[id] = task.Done()
			}
			eng.RunTicks(1+rng.Intn(4), 0.25)

			var want []string
			for id, task := range live {
				if !before[id] && task.Done() {
					want = append(want, id)
				}
			}
			sort.Strings(want)
			// Drained reports handles; the tasks are still registered
			// here, so each resolves back to its ID.
			var got []string
			for _, h := range eng.Drained() {
				got = append(got, eng.soa.task[eng.slotOf(h)].ID())
			}
			sorted := append([]string(nil), got...)
			sort.Strings(sorted)
			if !reflect.DeepEqual(sorted, want) {
				t.Fatalf("seed %d iter %d: Drained() = %v, polling oracle = %v", seed, iter, sorted, want)
			}
			drainedLog = append(drainedLog, got...)
			// Finished tasks leave the engine, as the scheduler would
			// remove them; they must not be reported again.
			for _, id := range got {
				eng.RemoveTask(id)
				delete(live, id)
				liveIDs = remove(liveIDs, id)
			}
		}
		if len(drainedLog) == 0 {
			t.Fatalf("seed %d: churn never drained a task", seed)
		}
		return drainedLog
	}
	for _, seed := range []int64{3, 17, 99} {
		first := run(seed)
		if again := run(seed); !reflect.DeepEqual(first, again) {
			t.Fatalf("seed %d: drained sequence differs between identical runs:\n%v\n%v", seed, first, again)
		}
	}
}

func remove(ids []string, id string) []string {
	out := ids[:0]
	for _, v := range ids {
		if v != id {
			out = append(out, v)
		}
	}
	return out
}

// TestQueueLiveListUnderChurn is the scheduler-level property test for
// the intrusive live-session list: a seeded roster heavy on the edges
// that mutate the list — tasks that finish on the very tick they join,
// leaves landing mid-run and in identical-time clusters, joins out of
// part order — must produce timelines and event streams identical to
// the always-tick reference loop, which re-polls every participant each
// step and so cannot have list corruption. With exact=true the
// reference takes a full engine Step every tick; with exact=false it
// advances the engine by RunTicks(1), the tiers Run uses.
func TestQueueLiveListUnderChurn(t *testing.T) {
	build := func(rng *rand.Rand, s *Scheduler) {
		for i := 0; i < 70; i++ {
			id := fmt.Sprintf("ch%03d", i)
			var (
				task *transfer.Task
				err  error
			)
			switch i % 4 {
			case 0:
				// Finishes within a tick of joining: join and finish
				// land on the same macro-step.
				task, err = transfer.NewTask(id, dataset.Uniform(id, 1, 1000),
					transfer.Setting{Concurrency: 1, Parallelism: 1, Pipelining: 1})
			default:
				task, err = transfer.NewTask(id, dataset.Uniform(id, 50, 2_000_000_000),
					transfer.Setting{Concurrency: 1 + rng.Intn(3), Parallelism: 1, Pipelining: 1})
			}
			if err != nil {
				t.Fatal(err)
			}
			// Joins deliberately not in part order, with repeats.
			p := Participant{Task: task, JoinAt: float64(rng.Intn(20)) * 2}
			if i%5 == 2 {
				p.LeaveAt = p.JoinAt + 10 + float64(rng.Intn(3))*10
			}
			if err := s.Add(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, seed := range []int64{5, 23} {
		for _, exact := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/exact=%v", seed, exact), func(t *testing.T) {
				type outcome struct {
					tl     *Timeline
					events []session.Event
				}
				run := func(ref bool) outcome {
					eng, err := NewEngine(HPCLab(), seed)
					if err != nil {
						t.Fatal(err)
					}
					s := NewScheduler(eng, 1)
					var events []session.Event
					s.SetEventSink(func(e session.Event) { events = append(events, e) })
					build(rand.New(rand.NewSource(seed)), s)
					tl := runVia(s, 100, ref, !exact)
					return outcome{tl: tl, events: events}
				}
				queue, ref := run(false), run(true)
				if len(queue.tl.Finished) == 0 {
					t.Fatal("churn roster never finished a task")
				}
				leaves := 0
				for _, e := range queue.events {
					if e.Kind == session.Leave {
						leaves++
					}
				}
				if leaves == 0 {
					t.Fatal("churn roster never left mid-run")
				}
				if !reflect.DeepEqual(queue.tl, ref.tl) {
					t.Error("queue timeline differs from the reference timeline under churn")
				}
				if !reflect.DeepEqual(queue.events, ref.events) {
					t.Error("queue event stream differs from the reference event stream under churn")
				}
			})
		}
	}
}
