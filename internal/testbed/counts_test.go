package testbed

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/session"
	"repro/internal/transfer"
)

// countingDecider counts the Decide calls of the isolated controller it
// wraps; the count is atomic because isolated decisions may run on the
// decide phase's helpers.
type countingDecider struct {
	session.IsolatedDecider
	calls *atomic.Uint64
}

func (c countingDecider) Decide(s transfer.Sample) transfer.Setting {
	c.calls.Add(1)
	return c.IsolatedDecider.Decide(s)
}

// countsFleet is a small staggered multi-spec fleet in the shape of a
// scenario document's roster: three specs of 20 Falcon agents (hc, gd,
// bo), each spec's parts contiguous, joining 0.5 s apart from offsets
// 0, 0.1 and 0.2 s — so joins interleave the specs — with every
// seventh session leaving at 40 s and every ninth a finisher. Task IDs
// carry prefix, so two copies can share a ShardSet.
func countsFleet(t *testing.T, prefix string, calls *atomic.Uint64) []Participant {
	t.Helper()
	shared := dataset.Uniform("counts-fleet", 64, 400*int64(dataset.TB))
	var parts []Participant
	for k, algo := range []string{"hc", "gd", "bo"} {
		for j := 0; j < 20; j++ {
			i := 20*k + j
			id := fmt.Sprintf("%s-%s%02d", prefix, algo, j)
			ds := shared
			if i%9 == 4 {
				ds = dataset.Uniform(id, 4, 16_000_000)
			}
			task, err := transfer.NewTask(id, ds, transfer.Setting{Concurrency: 1 + i%4, Parallelism: 1, Pipelining: 1})
			if err != nil {
				t.Fatal(err)
			}
			agent, err := core.NewFleetAgent(algo, 8, int64(i))
			if err != nil {
				t.Fatal(err)
			}
			p := Participant{
				Task:       task,
				Controller: countingDecider{agent, calls},
				JoinAt:     0.1*float64(k) + 0.5*float64(j),
			}
			if i%7 == 3 {
				p.LeaveAt = 40
			}
			parts = append(parts, p)
		}
	}
	return parts
}

// TestSchedulerCountsPinned pins the scheduler's work counts on a small
// staggered multi-spec fleet decided two wide, with the fan-out
// threshold lowered so the parallel phase runs. Beside the totals it
// asserts the identities the counts must satisfy: every popped horizon
// is a lifecycle pop, a deadline pop or a hint refresh; every isolated
// decision is one Decide call of an isolated controller; every engine
// tick took one tier, and every full step had one cause. A ShardSet of two copies of the fleet reports
// exactly twice the counts.
func TestSchedulerCountsPinned(t *testing.T) {
	lowerDecideFanout(t, 4)
	const until, tick = 60.0, 0.25
	var calls atomic.Uint64
	eng, err := NewEngine(HPCLab(), 5)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(eng, 1)
	s.decideWidth = 2
	for _, p := range countsFleet(t, "a", &calls) {
		if err := s.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(until, tick)
	c := s.Counts()

	if sum := c.LifecyclePops + c.DeadlinePops + c.HintRefreshes; c.Horizons != sum {
		t.Errorf("horizons popped %d ≠ lifecycle %d + deadline %d + hint %d", c.Horizons, c.LifecyclePops, c.DeadlinePops, c.HintRefreshes)
	}
	if got := calls.Load(); c.Isolated != got {
		t.Errorf("isolated decisions %d ≠ %d Decide calls", c.Isolated, got)
	}
	if ticks := c.Ticks.Full + c.Ticks.Retune + c.Ticks.Replay; ticks != uint64(until/tick) {
		t.Errorf("engine ticks %d (%+v), want %d", ticks, c.Ticks, uint64(until/tick))
	}
	if c.Ticks.Full != sumFull(c.Ticks) {
		t.Errorf("full steps %d ≠ the sum of their causes %+v", c.Ticks.Full, c.Ticks)
	}
	want := Counts{
		LoopHeads:     240,
		Horizons:      1833,
		HorizonGroups: 275,
		LifecyclePops: 68,
		DeadlinePops:  1764,
		HintRefreshes: 1,
		Isolated:      890,
		Fanouts:       120,
		Ticks:         TickCounts{Full: 44, JoinLeave: 42, Horizon: 2, Retune: 196},
	}
	if c != want {
		t.Errorf("counts %+v, want %+v", c, want)
	}

	calls.Store(0)
	spec := func(prefix string) ShardSpec {
		return ShardSpec{Key: prefix, Config: HPCLab(), Seed: 5, Parts: countsFleet(t, prefix, &calls)}
	}
	ss, err := NewShardSet([]ShardSpec{spec("a"), spec("b")}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ss.SetWorkers(4)
	if _, err := ss.Run(until, tick); err != nil {
		t.Fatal(err)
	}
	if twice := c.add(c); ss.Counts() != twice {
		t.Errorf("two-shard counts %+v, want twice one shard's: %+v", ss.Counts(), twice)
	}
	if got := calls.Load(); got != 2*c.Isolated {
		t.Errorf("two-shard run made %d Decide calls, want %d", got, 2*c.Isolated)
	}
}
