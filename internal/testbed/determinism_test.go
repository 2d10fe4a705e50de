package testbed

import (
	"reflect"
	"testing"

	"repro/internal/transfer"
)

// cycler is a controller that walks concurrency through a fixed cycle,
// so some decisions repeat the last setting and some change it.
type cycler struct {
	vals []int
	i    *int
}

func (c cycler) Decide(transfer.Sample) transfer.Setting {
	v := c.vals[*c.i%len(c.vals)]
	*c.i++
	return transfer.Setting{Concurrency: v, Parallelism: 1, Pipelining: 1}
}

// TestTieredRunMatchesPerTickReference: a scenario with competing
// tasks, joins, leaves, and a concurrency-cycling controller must
// produce exactly the same timeline under Run, whose engine takes the
// cheapest exact tier per tick, as on the always-tick reference loop,
// which takes a full Step every tick.
func TestTieredRunMatchesPerTickReference(t *testing.T) {
	run := func(ref bool) *Timeline {
		eng, err := NewEngine(HPCLab(), 7)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(eng, 1)
		i := 0
		parts := []Participant{
			{Task: bigTask("t1", 2), Controller: cycler{vals: []int{2, 2, 5, 5, 3}, i: &i}},
			{Task: bigTask("t2", 4)},
			{Task: bigTask("t3", 1), JoinAt: 40, LeaveAt: 110},
		}
		for _, p := range parts {
			if err := s.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		return runVia(s, 150, ref, false)
	}
	if !reflect.DeepEqual(run(false), run(true)) {
		t.Fatal("tiered Run changed the timeline vs the per-tick reference")
	}
}
