package testbed

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/session"
	"repro/internal/transfer"
)

// flapMutations is a representative schedule touching every mutation
// kind: a capacity drop and restore, an RTT shift, a store change, and
// a dataset that grows mid-transfer.
func flapMutations(growTask string) []Mutation {
	return []Mutation{
		{At: 40, Kind: MutLinkCapacity, Capacity: 10e9},
		{At: 80, Kind: MutLinkCapacity, Capacity: 40e9},
		{At: 55, Kind: MutRTT, RTT: 0.002},
		{At: 65, Kind: MutSrcStore, Capacity: 30e9, PerProc: 5e9},
		{At: 70, Kind: MutGrowDataset, Task: growTask, Count: 2, Size: 1e9},
	}
}

// runMutated runs a three-task scenario with the full mutation schedule
// through Run, or through the always-tick reference loop (ref), and
// returns the timeline plus the captured event stream.
func runMutated(t *testing.T, ref bool) (*Timeline, []session.Event) {
	t.Helper()
	eng, err := NewEngine(HPCLab(), 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range flapMutations("t1") {
		if err := eng.ScheduleMutation(m); err != nil {
			t.Fatal(err)
		}
	}
	s := NewScheduler(eng, 1)
	var events []session.Event
	s.SetEventSink(func(e session.Event) { events = append(events, e) })
	i := 0
	parts := []Participant{
		{Task: bigTask("t1", 2), Controller: cycler{vals: []int{2, 4, 4, 6, 3}, i: &i}},
		{Task: bigTask("t2", 4)},
		{Task: bigTask("t3", 1), JoinAt: 30, LeaveAt: 110},
	}
	for _, p := range parts {
		if err := s.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	tl := runVia(s, 150, ref, false)
	return tl, events
}

// TestMutationsTransparentAcrossModes: a mutation schedule must produce
// a timeline and event stream under Run byte-identical to the
// always-tick reference loop's. This is the determinism contract for
// -scenario runs: mutations are applied at the top of the engine step
// for their tick, and the batched fast path refuses to leap over a due
// mutation.
func TestMutationsTransparentAcrossModes(t *testing.T) {
	refTL, refEv := runMutated(t, true)
	tl, ev := runMutated(t, false)
	if !reflect.DeepEqual(tl, refTL) {
		t.Error("timeline differs from the always-tick reference")
	}
	if !reflect.DeepEqual(ev, refEv) {
		t.Error("event stream differs from the always-tick reference")
	}
}

// TestMutationCapacityApplied: a link-capacity drop must actually bind
// the fleet. Two fixed-setting tasks on a network-bottlenecked path see
// aggregate throughput halve after the link halves.
func TestMutationCapacityApplied(t *testing.T) {
	cfg := StampedeCometWAN()
	eng, err := NewEngine(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ScheduleMutation(Mutation{At: 100, Kind: MutLinkCapacity, Capacity: cfg.LinkCapacity / 4}); err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(eng, 1)
	for i := 0; i < 2; i++ {
		if err := s.Add(Participant{Task: bigTask(fmt.Sprintf("t%d", i), 16)}); err != nil {
			t.Fatal(err)
		}
	}
	tl := s.Run(200, 0.25)
	before := tl.MeanThroughputGbps("t0", 60, 100) + tl.MeanThroughputGbps("t1", 60, 100)
	after := tl.MeanThroughputGbps("t0", 120, 200) + tl.MeanThroughputGbps("t1", 120, 200)
	if before < 30 {
		t.Fatalf("fleet should saturate the 40 Gbps link before the drop, got %.1f Gbps", before)
	}
	if after > before/2 {
		t.Fatalf("aggregate %.1f Gbps after quartering the link from %.1f — mutation not applied", after, before)
	}
}

// TestMutationGrowDatasetExtendsRun: growing a task's dataset
// mid-transfer keeps it busy past the point where it would otherwise
// have drained.
func TestMutationGrowDatasetExtendsRun(t *testing.T) {
	run := func(grow bool) float64 {
		cfg := HPCLab()
		eng, err := NewEngine(cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		if grow {
			if err := eng.ScheduleMutation(Mutation{At: 10, Kind: MutGrowDataset, Task: "small", Count: 200, Size: 1e9}); err != nil {
				t.Fatal(err)
			}
		}
		// A dataset tiny enough to drain in seconds at ~27 Gbps.
		ds := dataset.Uniform("tiny-grow", 1, 8e9)
		task, err := transfer.NewTask("small", ds, transfer.Setting{Concurrency: 8, Parallelism: 1, Pipelining: 1})
		if err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(eng, 1)
		if err := s.Add(Participant{Task: task}); err != nil {
			t.Fatal(err)
		}
		tl := s.Run(60, 0.25)
		return tl.MeanThroughputGbps("small", 30, 60)
	}
	if tail := run(false); tail > 1 {
		t.Fatalf("ungrown task still moving %.1f Gbps in the final half; dataset too big for the test", tail)
	}
	if tail := run(true); tail < 1 {
		t.Fatalf("grown task idle in the final half (%.3f Gbps); grow mutation not applied", tail)
	}
}

// TestScheduleMutationValidation: malformed mutations are rejected at
// scheduling time, before they can corrupt a run.
func TestScheduleMutationValidation(t *testing.T) {
	eng, err := NewEngine(HPCLab(), 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Mutation{
		{At: -1, Kind: MutLinkCapacity, Capacity: 1e9},
		{At: math.NaN(), Kind: MutLinkCapacity, Capacity: 1e9},
		{At: 10, Kind: MutLinkCapacity, Capacity: 0},
		{At: 10, Kind: MutLinkCapacity, Capacity: math.Inf(1)},
		{At: 10, Kind: MutRTT, RTT: -0.1},
		{At: 10, Kind: MutSrcStore},
		{At: 10, Kind: MutDstStore, Capacity: -1},
		{At: 10, Kind: MutGrowDataset, Task: "", Count: 1, Size: 1},
		{At: 10, Kind: MutGrowDataset, Task: "t"},
		{At: 10, Kind: MutGrowDataset, Task: "t", Count: -1, Size: 1},
		{At: 10, Kind: MutGrowDataset, Task: "t", Count: 1, Size: 0},
		{At: 10, Kind: MutGrowDataset, Task: "t", Count: 2, Size: math.MaxInt64/2 + 1},
		{At: 10, Kind: MutationKind(99), Capacity: 1e9},
	}
	for i, m := range bad {
		if err := eng.ScheduleMutation(m); err == nil {
			t.Errorf("mutation %d (%+v) accepted, want error", i, m)
		}
	}
	if got := eng.PendingMutations(); got != 0 {
		t.Fatalf("%d rejected mutations still pending", got)
	}
	// Valid ones are accepted regardless of scheduling order, and
	// NextMutation reports the earliest.
	for _, at := range []float64{30, 10, 20, 10} {
		if err := eng.ScheduleMutation(Mutation{At: at, Kind: MutLinkCapacity, Capacity: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.PendingMutations(); got != 4 {
		t.Fatalf("PendingMutations = %d, want 4", got)
	}
	if eng.NextMutation() != 10 {
		t.Fatalf("NextMutation = %v, want 10", eng.NextMutation())
	}
}

// TestMutationGrowAfterDrainRevives: a grow mutation that lands after
// the engine dropped the drained task is a no-op rather than a panic,
// and one landing on a live task revives its flows.
func TestMutationGrowAfterLeaveIsNoop(t *testing.T) {
	eng, err := NewEngine(HPCLab(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ScheduleMutation(Mutation{At: 100, Kind: MutGrowDataset, Task: "gone", Count: 1, Size: 1e9}); err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(eng, 1)
	if err := s.Add(Participant{Task: bigTask("gone", 2), LeaveAt: 50}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Participant{Task: bigTask("stays", 2)}); err != nil {
		t.Fatal(err)
	}
	tl := s.Run(150, 0.25) // must not panic at t=100
	if tput := tl.MeanThroughputGbps("stays", 100, 150); tput <= 0 {
		t.Fatalf("surviving task stalled (%.3f Gbps) after no-op grow", tput)
	}
}

// TestRampFactorsFollowRTT: the engine caches its two ramp factors, so
// a new tick length or an RTT mutation (which moves τ) must refresh
// them. After every tick the cached pair equals the direct expressions
// for the engine's current dt and τ.
func TestRampFactorsFollowRTT(t *testing.T) {
	eng, err := NewEngine(StampedeCometWAN(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ScheduleMutation(Mutation{At: 1, Kind: MutRTT, RTT: 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddTask(bigTask("t", 4)); err != nil {
		t.Fatal(err)
	}
	for _, dt := range []float64{0.25, 0.25, 0.1, 0.5, 0.5} {
		eng.Step(dt)
		tau := eng.cfg.rampTau()
		up, down := eng.rampFactors(dt)
		if up != 1-math.Exp(-dt/tau) || down != 1-math.Exp(-dt/(tau/3)) {
			t.Fatalf("t=%v dt=%v τ=%v: cached ramp factors %v, %v are stale", eng.Now(), dt, tau, up, down)
		}
	}
	if tau := eng.cfg.rampTau(); tau != 5 {
		t.Fatalf("τ = %v after the RTT mutation, want 5", tau)
	}
}
