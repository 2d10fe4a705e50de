package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestRetuneMatchesFreshAllocation is the seeded property test for the
// positional edit: a long-lived network that allocates once and then
// takes a random stream of Retune edits, Refill calls and SetCapacity
// changes must, after every refill, report per-demand rates, losses
// and saturated resources bitwise equal to a fresh Network's
// AllocateDense over the edited demand list. Where Retune refuses, the
// edit is made by allocating the edited list on the live network, as
// the testbed engine falls back to a full step. The stream is checked
// to cover every edit shape the engine can produce.
func TestRetuneMatchesFreshAllocation(t *testing.T) {
	const (
		flows  = 12
		rounds = 400
	)
	rng := rand.New(rand.NewSource(7))
	kinds := []ResourceKind{Storage, CPU, Link, NIC}
	baseCaps := []float64{30 * gbps, 25 * gbps, 10 * gbps, 40 * gbps}
	ids := []string{"store", "cpu", "link", "nic"}
	caps := append([]float64(nil), baseCaps...)
	live := New()
	for i, id := range ids {
		live.AddResource(Resource{ID: id, Kind: kinds[i], Capacity: caps[i]})
	}
	routes := [][]string{{"store", "cpu", "link"}, {"store", "cpu", "link", "nic"}}
	capSet := []float64{100 * mbps, 400 * mbps, 1 * gbps, math.Inf(1)}
	demands := make([]Demand, flows)
	for f := range demands {
		demands[f] = Demand{
			FlowID:    fmt.Sprintf("f%02d", f),
			Resources: routes[f%len(routes)],
			Cap:       capSet[f%len(capSet)],
			RTT:       []float64{0.02, 0.05}[f%2],
			Weight:    1 + f%5,
		}
	}

	var got DenseAllocation
	if err := live.AllocateDense(&got, demands); err != nil {
		t.Fatal(err)
	}
	var seen struct{ newClass, emptied, zeroWeight, same, repeated, setCap, sweep int }
	fresh := func() *DenseAllocation {
		n := New()
		for i, id := range ids {
			n.AddResource(Resource{ID: id, Kind: kinds[i], Capacity: caps[i]})
		}
		var want DenseAllocation
		if err := n.AllocateDense(&want, demands); err != nil {
			t.Fatal(err)
		}
		return &want
	}
	last := -1
	unique := 0.0
	for round := 0; round < rounds; round++ {
		edits := 1 + rng.Intn(4)
		refused := false
		for e := 0; e < edits; e++ {
			i := rng.Intn(flows)
			if rng.Intn(4) == 0 && last >= 0 {
				i = last
				seen.repeated++
			}
			last = i
			d := &demands[i]
			capacity, weight := d.Cap, d.Weight
			switch rng.Intn(6) {
			case 0: // a cap no demand has had: a new class
				unique++
				capacity = 50*mbps + unique*mbps
			case 1:
				weight = 0
			case 2: // same value
			default:
				capacity = capSet[rng.Intn(len(capSet))]
				weight = rng.Intn(9)
			}
			if capacity == d.Cap && weight == d.Weight {
				seen.same++
			}
			if weight == 0 {
				seen.zeroWeight++
			}
			s := &live.scr
			classes := len(s.clsCap)
			old := -1
			if s.prevOK {
				old = s.classOf[i]
			}
			d.Cap, d.Weight = capacity, weight
			if refused || !live.Retune(i, capacity, weight) {
				if !refused && s.prevOK && len(s.clsCap)+1 > 2*s.prevN+16 {
					seen.sweep++
				}
				refused = true
				continue
			}
			if len(s.clsCap) > classes {
				seen.newClass++
			}
			if old >= 0 && old != s.classOf[i] && s.clsCount[old] == 0 {
				seen.emptied++
			}
		}
		if rng.Intn(3) == 0 {
			r := rng.Intn(len(ids))
			caps[r] = baseCaps[r] * (0.5 + rng.Float64())
			live.SetCapacity(ids[r], caps[r])
			seen.setCap++
		}
		if refused {
			if err := live.AllocateDense(&got, demands); err != nil {
				t.Fatal(err)
			}
		} else {
			live.Refill(&got)
		}
		want := fresh()
		for i := range demands {
			if math.Float64bits(got.Rate[i]) != math.Float64bits(want.Rate[i]) ||
				math.Float64bits(got.Loss[i]) != math.Float64bits(want.Loss[i]) {
				t.Fatalf("round %d demand %d: rate/loss %v/%v, fresh %v/%v",
					round, i, got.Rate[i], got.Loss[i], want.Rate[i], want.Loss[i])
			}
		}
		if !slices.Equal(got.Saturated, want.Saturated) {
			t.Fatalf("round %d: saturated %v, fresh %v", round, got.Saturated, want.Saturated)
		}
		if live.Classes() != len(distinctSignatures(demands)) {
			t.Fatalf("round %d: %d live classes, want %d", round, live.Classes(), len(distinctSignatures(demands)))
		}
	}
	for name, n := range map[string]int{
		"new class": seen.newClass, "class emptied": seen.emptied, "weight 0": seen.zeroWeight,
		"same value": seen.same, "repeated demand": seen.repeated, "SetCapacity": seen.setCap,
		"sweep fallback": seen.sweep,
	} {
		if n == 0 {
			t.Errorf("edit stream never covered: %s", name)
		}
	}
}

// TestRetuneRefusals pins where Retune declines to edit in place: with
// no live partition (before any call, or after an empty one), out of
// range, and on an invalid cap or weight, each leaving the next full
// allocation to report or absorb the change.
func TestRetuneRefusals(t *testing.T) {
	n := singleLinkNet(100 * mbps)
	if n.Retune(0, mbps, 1) {
		t.Error("Retune accepted before any allocation")
	}
	demands := []Demand{{FlowID: "a", Resources: []string{"link"}, Cap: 10 * mbps, RTT: 0.01}}
	var d DenseAllocation
	if err := n.AllocateDense(&d, demands); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		i      int
		cap    float64
		weight int
	}{{-1, mbps, 1}, {1, mbps, 1}, {0, 0, 1}, {0, math.NaN(), 1}, {0, mbps, -1}} {
		if n.Retune(c.i, c.cap, c.weight) {
			t.Errorf("Retune(%d, %v, %d) accepted", c.i, c.cap, c.weight)
		}
	}
	if !n.Retune(0, 20*mbps, 3) {
		t.Fatal("valid Retune refused")
	}
	if err := n.AllocateDense(&d, nil); err != nil {
		t.Fatal(err)
	}
	if n.Retune(0, mbps, 1) {
		t.Error("Retune accepted after an empty allocation")
	}
}

// distinctSignatures returns the set of class signatures in demands.
func distinctSignatures(demands []Demand) map[string]bool {
	sigs := make(map[string]bool)
	for _, d := range demands {
		sigs[fmt.Sprint(d.Resources, math.Float64bits(d.Cap), math.Float64bits(d.RTT))] = true
	}
	return sigs
}
