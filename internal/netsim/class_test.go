package netsim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// randomScenario builds a deterministic pseudo-random network and
// demand set from the seed: up to 6 resources of mixed kinds, up to 40
// demands drawn from a small pool of signatures so multi-member
// classes appear alongside degenerate single-flow classes, with mixed
// weights (multi-connection demands).
func randomScenario(seed uint32) (*Network, []Demand) {
	x := uint64(seed)*2654435761 + 1
	next := func(mod uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33) % mod
	}
	n := New()
	nres := int(next(6)) + 1
	resIDs := make([]string, nres)
	for i := 0; i < nres; i++ {
		id := fmt.Sprintf("r%d", i)
		resIDs[i] = id
		n.AddResource(Resource{ID: id, Kind: ResourceKind(next(4)), Capacity: float64(next(1000)+1) * mbps})
	}
	// A small signature pool makes repeated (path, cap, RTT) tuples
	// likely; some demands still draw fresh tuples and stay singletons.
	type sig struct {
		rs  []string
		cap float64
		rtt float64
	}
	nsig := int(next(5)) + 1
	sigs := make([]sig, nsig)
	for i := range sigs {
		nr := int(next(uint64(nres))) + 1
		rs := make([]string, 0, nr)
		seen := map[string]bool{}
		for len(rs) < nr {
			id := resIDs[next(uint64(nres))]
			if !seen[id] {
				seen[id] = true
				rs = append(rs, id)
			}
		}
		sigs[i] = sig{rs: rs, cap: float64(next(500)+1) * mbps, rtt: 0.01 + float64(next(100))/1000}
	}
	nflows := int(next(40)) + 1
	ds := make([]Demand, nflows)
	for i := range ds {
		s := sigs[next(uint64(nsig))]
		ds[i] = Demand{
			FlowID:    fmt.Sprintf("f%d", i),
			Resources: s.rs,
			Cap:       s.cap,
			RTT:       s.rtt,
			Weight:    int(next(4)), // 0 (=1) through 3 connections
		}
	}
	return n, ds
}

// sameAlloc reports whether two allocations are bitwise identical.
func sameAlloc(a, b *DenseAllocation) error {
	if len(a.Rate) != len(b.Rate) || len(a.Loss) != len(b.Loss) {
		return fmt.Errorf("sizes %d/%d vs %d/%d", len(a.Rate), len(a.Loss), len(b.Rate), len(b.Loss))
	}
	for i, r := range a.Rate {
		if math.Float64bits(r) != math.Float64bits(b.Rate[i]) {
			return fmt.Errorf("Rate[%d] = %x vs %x", i, r, b.Rate[i])
		}
	}
	for i, l := range a.Loss {
		if math.Float64bits(l) != math.Float64bits(b.Loss[i]) {
			return fmt.Errorf("Loss[%d] = %x vs %x", i, l, b.Loss[i])
		}
	}
	if fmt.Sprint(a.Saturated) != fmt.Sprint(b.Saturated) {
		return fmt.Errorf("Saturated %v vs %v", a.Saturated, b.Saturated)
	}
	return nil
}

// TestClassAggregationTransparencyProperty: across seeded random
// topologies, caps, RTTs, weights, and flow counts, the class-aggregated
// allocation is bitwise identical to the textbook per-flow water-fill
// (perFlowAllocate). Every float must match exactly — the weighted fill
// charges each resource once per level with exact integer weight sums,
// so no tolerance is needed or allowed.
func TestClassAggregationTransparencyProperty(t *testing.T) {
	f := func(seed uint32) bool {
		nAgg, ds := randomScenario(seed)
		aggAlloc, err := allocate(nAgg, ds)
		if err != nil {
			t.Fatalf("seed %d: aggregated: %v", seed, err)
		}
		if err := sameAlloc(aggAlloc, perFlowAllocate(nAgg, ds)); err != nil {
			t.Fatalf("seed %d: aggregated vs per-flow: %v", seed, err)
		}
		if nAgg.Classes() > len(ds) || nAgg.Classes() < 1 {
			t.Fatalf("seed %d: Classes() = %d with %d demands", seed, nAgg.Classes(), len(ds))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestClassCacheAcrossCalls exercises the partition cache's dirty-
// suffix path: joins append demands, leaves truncate, a retune changes
// one demand's cap mid-list. After every mutation the cached Network's
// allocation must remain bitwise identical to the per-flow reference,
// including while stale zero-member classes linger in the table.
func TestClassCacheAcrossCalls(t *testing.T) {
	build := func() *Network {
		n := New()
		n.AddResource(Resource{ID: "link", Kind: Link, Capacity: 10 * gbps})
		n.AddResource(Resource{ID: "store", Kind: Storage, Capacity: 8 * gbps})
		n.AddResource(Resource{ID: "nic", Kind: NIC, Capacity: 40 * gbps})
		return n
	}
	cached := build()
	var got DenseAllocation

	mk := func(i int, cap float64, w int) Demand {
		return Demand{
			FlowID:    fmt.Sprintf("t%d", i),
			Resources: []string{"store", "nic", "link"},
			Cap:       cap,
			RTT:       0.03,
			Weight:    w,
		}
	}
	ds := []Demand{mk(0, 500*mbps, 4), mk(1, 500*mbps, 4), mk(2, 250*mbps, 2)}

	check := func(step string) {
		t.Helper()
		if err := cached.AllocateDense(&got, ds); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if err := sameAlloc(&got, perFlowAllocate(build(), ds)); err != nil {
			t.Fatalf("%s: cached vs per-flow: %v", step, err)
		}
	}

	check("initial")
	if cached.Classes() != 2 {
		t.Fatalf("initial Classes() = %d, want 2 (two caps)", cached.Classes())
	}

	// Join: a new task appends a demand in an existing class.
	ds = append(ds, mk(3, 250*mbps, 2))
	check("join existing class")
	if cached.Classes() != 2 {
		t.Fatalf("after join Classes() = %d, want 2", cached.Classes())
	}

	// Join with a fresh signature: a third class appears.
	ds = append(ds, mk(4, 100*mbps, 1))
	check("join new class")
	if cached.Classes() != 3 {
		t.Fatalf("after new-class join Classes() = %d, want 3", cached.Classes())
	}

	// Retune: task 1 changes concurrency, moving it to the 250 Mbps
	// class; its old class keeps one member.
	ds[1] = mk(1, 250*mbps, 2)
	check("retune")

	// Leave: the last two tasks finish. The 100 Mbps class goes stale
	// (zero members) but stays cached.
	ds = ds[:3]
	check("leave")
	if cached.Classes() != 2 {
		t.Fatalf("after leave Classes() = %d, want 2 live", cached.Classes())
	}

	// Rejoin after staleness: the cached 100 Mbps class is revived.
	ds = append(ds, mk(5, 100*mbps, 3))
	check("rejoin stale class")
	if cached.Classes() != 3 {
		t.Fatalf("after rejoin Classes() = %d, want 3", cached.Classes())
	}

	// Dropping the cache mid-stream forces a rebuild from scratch and
	// must not change results.
	cached.resetClasses()
	check("cache reset")
}

// fleetDemands builds the acceptance-criteria demand set: 1000 flows
// sharing one bottleneck path with four distinct per-flow caps, the
// shape a 1000-session fleet presents to the allocator (4 classes).
func fleetDemands() (*Network, []Demand) {
	n := New()
	n.AddResource(Resource{ID: "link", Kind: Link, Capacity: 10 * gbps})
	n.AddResource(Resource{ID: "store", Kind: Storage, Capacity: 8 * gbps})
	n.AddResource(Resource{ID: "nic", Kind: NIC, Capacity: 40 * gbps})
	caps := []float64{100 * mbps, 200 * mbps, 400 * mbps, 800 * mbps}
	ds := make([]Demand, 1000)
	for i := range ds {
		ds[i] = Demand{
			FlowID:    fmt.Sprintf("f%d", i),
			Resources: []string{"store", "nic", "link"},
			Cap:       caps[i%len(caps)],
			RTT:       0.03,
			Weight:    1 + i%4,
		}
	}
	return n, ds
}

// TestFleetDemandsTransparency pins the benchmark configuration itself:
// the 1000-flow fleet set collapses to 4 classes and matches the
// per-flow reference bitwise.
func TestFleetDemandsTransparency(t *testing.T) {
	nAgg, ds := fleetDemands()
	aggAlloc, err := allocate(nAgg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if nAgg.Classes() != 4 {
		t.Fatalf("Classes() = %d, want 4", nAgg.Classes())
	}
	if err := sameAlloc(aggAlloc, perFlowAllocate(nAgg, ds)); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAllocate1kFlows is the fleet-scale allocation through the
// engine's entry point (AllocateDense): 1000 flows in 4 classes over a
// three-resource bottleneck path. The class water-fill plus the
// partition cache make the steady-state call O(classes × resources)
// with one cheap compare pass over the demands; the benchmark asserts
// the arena keeps it allocation-free.
func BenchmarkAllocate1kFlows(b *testing.B) {
	n, ds := fleetDemands()
	var alloc DenseAllocation
	if err := n.AllocateDense(&alloc, ds); err != nil {
		b.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := n.AllocateDense(&alloc, ds); err != nil {
			b.Fatal(err)
		}
	}); avg != 0 {
		b.Fatalf("AllocateDense allocated %.1f times per call, want 0", avg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.AllocateDense(&alloc, ds); err != nil {
			b.Fatal(err)
		}
	}
}
