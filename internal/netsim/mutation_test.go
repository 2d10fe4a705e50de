package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestMutatedAllocationMatchesFreshNetwork is the seeded property test
// for mid-run capacity mutation: a long-lived network that interleaves
// SetCapacity with AllocateDense (exercising the incremental class
// partition and cached tables) must allocate exactly like a network
// freshly built at the current capacities every round. If a stale
// fill or class table survived a capacity change, the two would
// diverge.
func TestMutatedAllocationMatchesFreshNetwork(t *testing.T) {
	const (
		resources = 4
		flows     = 24
		rounds    = 60
	)
	rng := rand.New(rand.NewSource(42))
	kinds := []ResourceKind{Storage, NIC, Link, Storage}
	baseCaps := []float64{8 * gbps, 40 * gbps, 10 * gbps, 30 * gbps}
	ids := make([]string, resources)
	caps := make([]float64, resources)
	live := New()
	for i := range ids {
		ids[i] = fmt.Sprintf("r%d", i)
		caps[i] = baseCaps[i]
		live.AddResource(Resource{ID: ids[i], Kind: kinds[i], Capacity: caps[i]})
	}

	mkDemands := func() []Demand {
		ds := make([]Demand, flows)
		for f := range ds {
			// A few distinct (cap, rtt, route) shapes so flows land in
			// classes; identical shapes collapse together.
			shape := f % 4
			route := []string{"r0", "r1", "r2"}
			if shape == 3 {
				route = []string{"r0", "r1", "r2", "r3"}
			}
			ds[f] = Demand{
				FlowID:    fmt.Sprintf("f%02d", f),
				Resources: route,
				Cap:       []float64{400 * mbps, 2 * gbps, math.Inf(1), 1 * gbps}[shape],
				RTT:       []float64{0.03, 0.03, 0.06, 0.01}[shape],
			}
		}
		return ds
	}

	var gotLive, gotFresh DenseAllocation
	for round := 0; round < rounds; round++ {
		// Mutate one resource (sometimes idempotently, like the
		// engine's per-tick contention-cap refresh).
		idx := rng.Intn(resources)
		if rng.Intn(3) > 0 {
			caps[idx] = baseCaps[idx] * (0.25 + rng.Float64()*1.5)
		}
		live.SetCapacity(ids[idx], caps[idx])

		fresh := New()
		for i := range ids {
			fresh.AddResource(Resource{ID: ids[i], Kind: kinds[i], Capacity: caps[i]})
		}

		demands := mkDemands()
		if err := live.AllocateDense(&gotLive, demands); err != nil {
			t.Fatalf("round %d: live: %v", round, err)
		}
		if err := fresh.AllocateDense(&gotFresh, demands); err != nil {
			t.Fatalf("round %d: fresh: %v", round, err)
		}
		if !reflect.DeepEqual(gotLive, gotFresh) {
			t.Fatalf("round %d: mutated network diverged from fresh oracle\nlive:  %+v\nfresh: %+v",
				round, gotLive, gotFresh)
		}
	}
}

// TestTopologyRouteUnderMutation covers Route and SetCapacity on a
// built topology network: the route is stable under capacity changes
// (routing is latency-based), while the path's bottleneck value moves
// with the narrowest link — the contract the scenario compiler's
// link-mutation lowering depends on.
func TestTopologyRouteUnderMutation(t *testing.T) {
	topo := NewTopology()
	for _, n := range []string{"src", "a", "b", "dst"} {
		topo.AddNode(n)
	}
	topo.AddLink("l0", "src", "a", 40*gbps, 0.0005)
	topo.AddLink("l1", "a", "b", 10*gbps, 0.015)
	topo.AddLink("l2", "b", "dst", 40*gbps, 0.0005)
	// A shorter-hop but higher-latency detour that must not be chosen.
	topo.AddLink("slow", "src", "dst", 100*gbps, 0.2)

	route, rtt, err := topo.Route("src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"l0", "l1", "l2"}; !reflect.DeepEqual(route, want) {
		t.Fatalf("route = %v, want %v", route, want)
	}
	if want := 2 * (0.0005 + 0.015 + 0.0005); math.Abs(rtt-want) > 1e-12 {
		t.Fatalf("rtt = %v, want %v", rtt, want)
	}
	if _, _, err := topo.Route("src", "ghost"); err == nil {
		t.Fatal("Route to unknown node did not error")
	}

	net := topo.BuildNetwork()
	bottleneck := func() float64 {
		min := math.Inf(1)
		for _, id := range route {
			r, ok := net.Resource(id)
			if !ok {
				t.Fatalf("route link %q missing from built network", id)
			}
			if r.Capacity < min {
				min = r.Capacity
			}
		}
		return min
	}
	if got := bottleneck(); got != 10*gbps {
		t.Fatalf("initial bottleneck = %v, want 10 Gbps", got)
	}
	// Narrow an access link below the middle hop: the bottleneck moves.
	net.SetCapacity("l0", 5*gbps)
	if got := bottleneck(); got != 5*gbps {
		t.Fatalf("bottleneck after narrowing l0 = %v, want 5 Gbps", got)
	}
	// The route itself is unchanged by capacity mutation.
	r2, rtt2, err := topo.Route("src", "dst")
	if err != nil || !reflect.DeepEqual(r2, route) || rtt2 != rtt {
		t.Fatalf("route changed under capacity mutation: %v %v %v", r2, rtt2, err)
	}
	// Allocation on the mutated network respects the new bottleneck.
	var alloc DenseAllocation
	demands := []Demand{
		{FlowID: "x", Resources: route, Cap: math.Inf(1), RTT: rtt},
		{FlowID: "y", Resources: route, Cap: math.Inf(1), RTT: rtt},
	}
	if err := net.AllocateDense(&alloc, demands); err != nil {
		t.Fatal(err)
	}
	if total := alloc.Rate[0] + alloc.Rate[1]; math.Abs(total-5*gbps) > 1 {
		t.Fatalf("aggregate %v on a 5 Gbps bottleneck", total)
	}
}
