package testbed

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/session"
	"repro/internal/trace"
	"repro/internal/transfer"
)

func handleTask(t *testing.T, id string, files, cc int) *transfer.Task {
	t.Helper()
	task, err := transfer.NewTask(id, dataset.Uniform(id, files, 500_000_000),
		transfer.Setting{Concurrency: cc, Parallelism: 1, Pipelining: 1})
	if err != nil {
		t.Fatal(err)
	}
	return task
}

// TestEngineHandlesMatchByIDOracle churns one engine — add, remove,
// retune, re-add a removed ID, advance — against a naive oracle that
// knows tasks only by ID (a map plus a spliced insertion-order list),
// and checks after every operation that order iteration, TaskIDs, and
// the by-ID and by-handle reads all describe the oracle's state, that
// handle→slot survived the swap-removes, and that every retired handle
// stays unknown.
func TestEngineHandlesMatchByIDOracle(t *testing.T) {
	for _, seed := range []int64{1, 8, 42} {
		rng := rand.New(rand.NewSource(seed))
		eng, err := NewEngine(HPCLab(), seed)
		if err != nil {
			t.Fatal(err)
		}
		tasks := map[string]*transfer.Task{}
		var order, removed []string
		var retired []int32
		minted := int32(0)

		add := func(id string) {
			task := handleTask(t, id, 2+rng.Intn(40), 1+rng.Intn(6))
			if err := eng.AddTask(task); err != nil {
				t.Fatalf("seed %d: add %s: %v", seed, id, err)
			}
			if h := eng.Handle(id); h != minted {
				t.Fatalf("seed %d: %s got handle %d, want the next dense handle %d", seed, id, h, minted)
			}
			minted++
			tasks[id] = task
			order = append(order, id)
		}
		check := func(op string) {
			t.Helper()
			if got := eng.TaskIDs(); !slices.Equal(got, order) {
				t.Fatalf("seed %d after %s: TaskIDs() = %v, oracle %v", seed, op, got, order)
			}
			var walked []string
			for _, h := range eng.order {
				if i := eng.hslot[h]; i >= 0 {
					walked = append(walked, eng.soa.task[i].ID())
				}
			}
			if !slices.Equal(walked, order) {
				t.Fatalf("seed %d after %s: order walk = %v, oracle %v", seed, op, walked, order)
			}
			if live := len(eng.order) - eng.dead; live != len(order) || (eng.dead > 0 && 2*eng.dead >= len(eng.order)) {
				t.Fatalf("seed %d after %s: order len %d with %d tombstones for %d live tasks", seed, op, len(eng.order), eng.dead, len(order))
			}
			if eng.soa.len() != len(order) {
				t.Fatalf("seed %d after %s: %d slots for %d tasks", seed, op, eng.soa.len(), len(order))
			}
			for _, id := range order {
				h := eng.Handle(id)
				i := eng.slotOf(h)
				if h < 0 || i < 0 || eng.soa.handle[i] != h || eng.soa.task[i] != tasks[id] {
					t.Fatalf("seed %d after %s: %s → handle %d → slot %d does not hold its task", seed, op, id, h, i)
				}
				if eng.Task(id) != tasks[id] {
					t.Fatalf("seed %d after %s: Task(%s) is not the registered task", seed, op, id)
				}
				if byID, byH := eng.CurrentRate(id), eng.rateOf(h); byID != byH || byID != eng.soa.rate[i] {
					t.Fatalf("seed %d after %s: %s rate by ID %v, by handle %v, in slot %v", seed, op, id, byID, byH, eng.soa.rate[i])
				}
			}
			for _, h := range retired {
				if i := eng.slotOf(h); i != -1 {
					t.Fatalf("seed %d after %s: retired handle %d resolves to slot %d", seed, op, h, i)
				}
				if r := eng.rateOf(h); r != 0 {
					t.Fatalf("seed %d after %s: retired handle %d reads rate %v", seed, op, h, r)
				}
			}
		}

		for iter := 0; iter < 600; iter++ {
			switch op := rng.Intn(10); {
			case op < 3 && len(order) < 24:
				add(fmt.Sprintf("h%03d", iter))
				check("add")
			case op < 5 && len(order) > 0:
				j := rng.Intn(len(order))
				id := order[j]
				retired = append(retired, eng.Handle(id))
				eng.RemoveTask(id)
				delete(tasks, id)
				order = append(order[:j], order[j+1:]...)
				removed = append(removed, id)
				if eng.Handle(id) != -1 {
					t.Fatalf("seed %d: removed %s still has a handle", seed, id)
				}
				check("remove")
			case op < 6 && len(removed) > 0 && len(order) < 24:
				j := rng.Intn(len(removed))
				id := removed[j]
				removed = append(removed[:j], removed[j+1:]...)
				add(id)
				check("re-add")
			case op < 8 && len(order) > 0:
				task := tasks[order[rng.Intn(len(order))]]
				set := task.Setting()
				set.Concurrency = 1 + rng.Intn(8)
				if err := task.SetSetting(set); err != nil {
					t.Fatal(err)
				}
				check("retune")
			default:
				eng.RunTicks(1+rng.Intn(6), 0.25)
				// Drained tasks leave, as the scheduler removes them.
				for _, h := range append([]int32(nil), eng.Drained()...) {
					id := eng.soa.task[eng.slotOf(h)].ID()
					retired = append(retired, h)
					eng.RemoveTask(id)
					delete(tasks, id)
					order = remove(order, id)
				}
				check("advance")
			}
		}
		if len(retired) < 20 || minted < 60 {
			t.Fatalf("seed %d: churn too thin (%d handles minted, %d retired)", seed, minted, len(retired))
		}
	}
}

// TestRetiredHandleIsUnknown: removing a task swaps the last slot into
// its place; the removed task's handle must then report an unknown
// task, not read or reset the task that now occupies the slot.
func TestRetiredHandleIsUnknown(t *testing.T) {
	eng, err := NewEngine(HPCLab(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := eng.AddTask(handleTask(t, id, 50, 2)); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunTicks(8, 0.25)
	ha, hc := eng.Handle("a"), eng.Handle("c")
	slot := eng.slotOf(ha)
	eng.RemoveTask("a")
	if eng.slotOf(hc) != slot {
		t.Fatalf("c was not swapped into a's slot %d (now %d)", slot, eng.slotOf(hc))
	}
	if _, err := eng.takeSampleOf(ha); err == nil {
		t.Error("sample through a's retired handle succeeded")
	}
	if r := eng.rateOf(ha); r != 0 {
		t.Errorf("rate through a's retired handle = %v, want 0", r)
	}
	dur := eng.soa.windowDur[slot]
	eng.beginWindowOf(ha)
	if dur == 0 || eng.soa.windowDur[slot] != dur {
		t.Errorf("BeginWindow through a's retired handle reset c's window (%v → %v)", dur, eng.soa.windowDur[slot])
	}
	byH, err := eng.takeSampleOf(hc)
	if err != nil || byH.Duration != dur {
		t.Errorf("c's sample by handle = %+v, %v; want its own %v s window", byH, err, dur)
	}
	// A re-added "a" is a new task with a new handle; the old one stays dead.
	if err := eng.AddTask(handleTask(t, "a", 50, 2)); err != nil {
		t.Fatal(err)
	}
	if h := eng.Handle("a"); h == ha || eng.slotOf(ha) != -1 {
		t.Errorf("re-added a has handle %d (old %d, old slot %d)", h, ha, eng.slotOf(ha))
	}
}

// TestEventIndexAndSeriesByPart runs a fleet whose participants join
// out of part order (with leaves and mid-run finishes) through Run and
// through the always-tick reference loop and checks that every event
// carries its participant's part index on both, and that the
// timeline the index-addressed series table recorded is exactly the
// one a by-name recorder builds from the same event stream.
func TestEventIndexAndSeriesByPart(t *testing.T) {
	for _, queue := range []bool{true, false} {
		eng, err := NewEngine(HPCLab(), 11)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(eng, 1)
		var events []session.Event
		s.SetEventSink(func(e session.Event) { events = append(events, e) })
		fleetScenario(t, s, 45)
		part := map[string]int{}
		joinAt := map[string]float64{}
		for i := range s.parts {
			part[s.parts[i].p.Task.ID()] = i
			joinAt[s.parts[i].p.Task.ID()] = s.parts[i].p.JoinAt
		}
		tl := runVia(s, 120, !queue, false)

		var byName Timeline
		for _, e := range events {
			if e.Index != part[e.Session] {
				t.Fatalf("queue=%v: %s event of %s carries Index %d, want part %d", queue, e.Kind, e.Session, e.Index, part[e.Session])
			}
			switch e.Kind {
			case session.Sample:
				byName.Loss.Append(e.Session, e.Time, e.Sample.Loss)
			case session.Decision:
				byName.Concurrency.Append(e.Session, e.Time, float64(e.Setting.Concurrency))
			}
		}
		if len(events) == 0 {
			t.Fatalf("queue=%v: no events", queue)
		}
		// fleetScenario's part 1 joins at t=7 and part 5 at t=0, so the
		// join sequence is not the part sequence.
		if joinAt["eq0001"] <= joinAt["eq0005"] {
			t.Fatal("fixture no longer joins out of part order")
		}
		for _, pair := range []struct {
			name     string
			got, ref *trace.TimeSet
		}{{"loss", &tl.Loss, &byName.Loss}, {"concurrency", &tl.Concurrency, &byName.Concurrency}} {
			for _, ref := range pair.ref.Series {
				got := pair.got.Lookup(ref.Name)
				if got == nil || !reflect.DeepEqual(got.Points, ref.Points) {
					t.Errorf("queue=%v: %s series %s differs from the by-name recording", queue, pair.name, ref.Name)
				}
			}
			points := 0
			for _, sr := range pair.got.Series {
				points += sr.Len()
			}
			refPoints := 0
			for _, sr := range pair.ref.Series {
				refPoints += sr.Len()
			}
			if points != refPoints {
				t.Errorf("queue=%v: %s recorded %d points, by-name recording %d", queue, pair.name, points, refPoints)
			}
		}
		// Throughput points carry no event; each series must start at
		// or after its own participant's join, never another's.
		for _, sr := range tl.Throughput.Series {
			if sr.Len() == 0 {
				continue
			}
			if first := sr.Points[0].Time; first < joinAt[sr.Name] || first > joinAt[sr.Name]+1.5 {
				t.Errorf("queue=%v: %s throughput starts at t=%v, its session joined at %v", queue, sr.Name, first, joinAt[sr.Name])
			}
		}
	}
}
