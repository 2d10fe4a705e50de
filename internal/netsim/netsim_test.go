package netsim

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

const (
	mbps = 1e6
	gbps = 1e9
)

func singleLinkNet(capacity float64) *Network {
	n := New()
	n.AddResource(Resource{ID: "link", Kind: Link, Capacity: capacity})
	return n
}

func demand(id string, cap float64, rtt float64, res ...string) Demand {
	return Demand{FlowID: id, Resources: res, Cap: cap, RTT: rtt}
}

// allocate is AllocateDense into a fresh result.
func allocate(n *Network, ds []Demand) (*DenseAllocation, error) {
	a := &DenseAllocation{}
	return a, n.AllocateDense(a, ds)
}

func TestResourceKindString(t *testing.T) {
	cases := map[ResourceKind]string{Link: "link", NIC: "nic", Storage: "storage", CPU: "cpu", ResourceKind(9): "ResourceKind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestAddResourceValidation(t *testing.T) {
	n := New()
	n.AddResource(Resource{ID: "a", Capacity: 1})
	for _, r := range []Resource{
		{ID: "", Capacity: 1},
		{ID: "b", Capacity: 0},
		{ID: "a", Capacity: 1}, // duplicate
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddResource(%+v) did not panic", r)
				}
			}()
			n.AddResource(r)
		}()
	}
}

func TestSetCapacity(t *testing.T) {
	n := singleLinkNet(100 * mbps)
	n.SetCapacity("link", 50*mbps)
	r, ok := n.Resource("link")
	if !ok || r.Capacity != 50*mbps {
		t.Fatalf("capacity = %v, want 50 Mbps", r.Capacity)
	}
	if _, ok := n.Resource("nope"); ok {
		t.Fatal("Resource returned ok for unknown ID")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetCapacity on unknown resource did not panic")
			}
		}()
		n.SetCapacity("nope", 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetCapacity zero did not panic")
			}
		}()
		n.SetCapacity("link", 0)
	}()
}

func TestAllocateEmptyDemands(t *testing.T) {
	n := singleLinkNet(100 * mbps)
	a, err := allocate(n, nil)
	if err != nil {
		t.Fatalf("AllocateDense: %v", err)
	}
	if len(a.Rate) != 0 || len(a.Loss) != 0 || len(a.Saturated) != 0 {
		t.Fatal("empty allocation not empty")
	}
}

func TestAllocateValidation(t *testing.T) {
	n := singleLinkNet(100 * mbps)
	cases := []struct {
		name string
		d    []Demand
	}{
		{"empty id", []Demand{demand("", 1, 0.03, "link")}},
		{"dup id", []Demand{demand("f", 1, 0.03, "link"), demand("f", 1, 0.03, "link")}},
		{"zero cap", []Demand{{FlowID: "f", Resources: []string{"link"}, Cap: 0, RTT: 0.03}}},
		{"unknown resource", []Demand{demand("f", 1, 0.03, "ghost")}},
	}
	for _, c := range cases {
		if _, err := allocate(n, c.d); err == nil {
			t.Errorf("%s: AllocateDense did not error", c.name)
		}
	}
}

func TestSingleFlowCappedByOwnLimit(t *testing.T) {
	n := singleLinkNet(100 * mbps)
	a, err := allocate(n, []Demand{demand("f", 10*mbps, 0.03, "link")})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Rate[0]; math.Abs(got-10*mbps) > 1 {
		t.Fatalf("rate = %v, want 10 Mbps", got)
	}
	if len(a.Saturated) != 0 {
		t.Fatalf("saturated = %v, want none", a.Saturated)
	}
	// Unsaturated link: only base loss.
	if l := a.Loss[0]; l > 1e-3 {
		t.Fatalf("loss = %v, want ≈ base", l)
	}
}

func TestSingleFlowCappedByLink(t *testing.T) {
	n := singleLinkNet(100 * mbps)
	a, err := allocate(n, []Demand{demand("f", 1*gbps, 0.03, "link")})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Rate[0]; math.Abs(got-100*mbps) > 100 {
		t.Fatalf("rate = %v, want 100 Mbps", got)
	}
	if len(a.Saturated) != 1 || a.Saturated[0] != "link" {
		t.Fatalf("saturated = %v, want [link]", a.Saturated)
	}
}

func TestEqualSharingOnSaturatedLink(t *testing.T) {
	n := singleLinkNet(100 * mbps)
	var ds []Demand
	for i := 0; i < 4; i++ {
		ds = append(ds, demand(fmt.Sprintf("f%d", i), 1*gbps, 0.03, "link"))
	}
	a, err := allocate(n, ds)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range ds {
		if got := a.Rate[i]; math.Abs(got-25*mbps) > 1e3 {
			t.Fatalf("rate[%s] = %v, want 25 Mbps", d.FlowID, got)
		}
	}
}

func TestMaxMinWithHeterogeneousCaps(t *testing.T) {
	// One flow capped at 10 Mbps; remaining 90 Mbps split between two.
	n := singleLinkNet(100 * mbps)
	ds := []Demand{
		demand("small", 10*mbps, 0.03, "link"),
		demand("big1", 1*gbps, 0.03, "link"),
		demand("big2", 1*gbps, 0.03, "link"),
	}
	a, err := allocate(n, ds)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Rate[0]; math.Abs(got-10*mbps) > 1e3 {
		t.Fatalf("small = %v, want 10 Mbps", got)
	}
	for i := 1; i < 3; i++ {
		if got := a.Rate[i]; math.Abs(got-45*mbps) > 1e3 {
			t.Fatalf("%s = %v, want 45 Mbps", ds[i].FlowID, got)
		}
	}
}

func TestMultiResourcePath(t *testing.T) {
	// Flow limited by the narrowest resource along its path.
	n := New()
	n.AddResource(Resource{ID: "store", Kind: Storage, Capacity: 30 * mbps})
	n.AddResource(Resource{ID: "link", Kind: Link, Capacity: 100 * mbps})
	n.AddResource(Resource{ID: "nic", Kind: NIC, Capacity: 1 * gbps})
	a, err := allocate(n, []Demand{demand("f", 1*gbps, 0.03, "store", "link", "nic")})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Rate[0]; math.Abs(got-30*mbps) > 100 {
		t.Fatalf("rate = %v, want 30 Mbps (storage-bound)", got)
	}
	// Storage saturated, link not: sender-limited flows see no Mathis
	// loss (§3.1: L returns 0 when transfer bottleneck is I/O).
	if l := a.Loss[0]; l > 1e-3 {
		t.Fatalf("loss = %v, want ≈ base only", l)
	}
}

func TestLossGrowsQuadraticallyWithFlows(t *testing.T) {
	// Figure 4's mechanism: at a saturated link, per-flow share halves
	// as the flow count doubles, and Mathis loss quadruples.
	n := singleLinkNet(100 * mbps)
	lossAt := func(k int) float64 {
		var ds []Demand
		for i := 0; i < k; i++ {
			ds = append(ds, demand(fmt.Sprintf("f%d", i), 1*gbps, 0.03, "link"))
		}
		a, err := allocate(n, ds)
		if err != nil {
			t.Fatal(err)
		}
		return a.Loss[0]
	}
	l10, l20, l32 := lossAt(10), lossAt(20), lossAt(32)
	if !(l10 < l20 && l20 < l32) {
		t.Fatalf("loss not increasing: %v %v %v", l10, l20, l32)
	}
	ratio := (l20 - 1e-4) / (l10 - 1e-4) // subtract base loss
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("doubling flows should ≈4x the loss, got ratio %v", ratio)
	}
	// The paper's Figure 4: ≈10% loss at concurrency 32 on the 100 Mbps
	// Emulab link, <2% below 10.
	if l32 < 0.05 || l32 > 0.2 {
		t.Fatalf("loss at 32 flows = %v, want ≈0.1", l32)
	}
	if l10 > 0.02 {
		t.Fatalf("loss at 10 flows = %v, want <2%%", l10)
	}
}

func TestLossClampedAtMax(t *testing.T) {
	n := singleLinkNet(1 * mbps)
	var ds []Demand
	for i := 0; i < 64; i++ {
		ds = append(ds, demand(fmt.Sprintf("f%d", i), 1*gbps, 0.2, "link"))
	}
	a, err := allocate(n, ds)
	if err != nil {
		t.Fatal(err)
	}
	max := n.LossModel().Max
	for i, l := range a.Loss {
		if l > max {
			t.Fatalf("loss[%s] = %v exceeds max %v", ds[i].FlowID, l, max)
		}
	}
}

func TestSetLossModel(t *testing.T) {
	n := singleLinkNet(100 * mbps)
	m := LossModel{MSSBits: 12000, Scale: 1, Base: 0, Max: 0.5}
	n.SetLossModel(m)
	if got := n.LossModel(); got != m {
		t.Fatalf("LossModel = %+v, want %+v", got, m)
	}
}

func TestTwoTasksShareBottleneckFairly(t *testing.T) {
	// Two tasks with different connection counts sharing one link:
	// per-connection rates are equal, so the task with more connections
	// gets proportionally more — the raw TCP behaviour that Falcon's
	// utility function must counteract.
	n := singleLinkNet(1 * gbps)
	var ds []Demand
	for i := 0; i < 10; i++ {
		ds = append(ds, demand(fmt.Sprintf("a%d", i), 1*gbps, 0.03, "link"))
	}
	for i := 0; i < 30; i++ {
		ds = append(ds, demand(fmt.Sprintf("b%d", i), 1*gbps, 0.03, "link"))
	}
	a, err := allocate(n, ds)
	if err != nil {
		t.Fatal(err)
	}
	var taskA, taskB float64
	for i, r := range a.Rate {
		if ds[i].FlowID[0] == 'a' {
			taskA += r
		} else {
			taskB += r
		}
	}
	if math.Abs(taskA-0.25*gbps) > 1e6 || math.Abs(taskB-0.75*gbps) > 1e6 {
		t.Fatalf("taskA = %v, taskB = %v; want 250/750 Mbps", taskA, taskB)
	}
}

// Property: allocations never violate resource capacities or flow caps,
// and total allocated rate is maximal in the sense that at least one
// resource on an unsatisfied flow's path is saturated.
func TestAllocationInvariantsProperty(t *testing.T) {
	f := func(seed uint32) bool {
		// Deterministic pseudo-random scenario from the seed.
		x := uint64(seed)*2654435761 + 1
		next := func(mod uint64) uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return (x >> 33) % mod
		}
		n := New()
		nres := int(next(4)) + 1
		resIDs := make([]string, nres)
		for i := 0; i < nres; i++ {
			id := fmt.Sprintf("r%d", i)
			resIDs[i] = id
			n.AddResource(Resource{ID: id, Kind: ResourceKind(next(4)), Capacity: float64(next(1000)+1) * mbps})
		}
		nflows := int(next(12)) + 1
		ds := make([]Demand, nflows)
		for i := range ds {
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
			ds[i] = Demand{
				FlowID:    fmt.Sprintf("f%d", i),
				Resources: rs,
				Cap:       float64(next(500)+1) * mbps,
				RTT:       0.01 + float64(next(100))/1000,
			}
		}
		a, err := allocate(n, ds)
		if err != nil {
			return false
		}
		// Capacity invariant.
		used := map[string]float64{}
		for i := range ds {
			r := a.Rate[i]
			if r < -1e-6 || r > ds[i].Cap*(1+1e-6) {
				return false
			}
			for _, rid := range ds[i].Resources {
				used[rid] += r
			}
		}
		for rid, u := range used {
			res, _ := n.Resource(rid)
			if u > res.Capacity*(1+1e-6) {
				return false
			}
		}
		// Pareto condition: every flow is either at its cap or crosses
		// a saturated resource.
		sat := map[string]bool{}
		for _, s := range a.Saturated {
			sat[s] = true
		}
		for i := range ds {
			r := a.Rate[i]
			if r >= ds[i].Cap*(1-1e-6) {
				continue
			}
			onSat := false
			for _, rid := range ds[i].Resources {
				if sat[rid] {
					onSat = true
					break
				}
			}
			if !onSat {
				return false
			}
		}
		// Loss sanity.
		for _, l := range a.Loss {
			if l < 0 || l > n.LossModel().Max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCapLimitedFlowSeesOnlyBaseLoss is the regression test for loss
// attribution: a flow whose cap holds it strictly below a saturated
// link's fair share never fills the queue, so it must see only the
// base loss floor while the flows actually pushing the link get the
// Mathis-model loss (§3.1's sender-limited case).
func TestCapLimitedFlowSeesOnlyBaseLoss(t *testing.T) {
	n := singleLinkNet(100 * mbps)
	a, err := allocate(n, []Demand{
		demand("small", 5*mbps, 0.03, "link"), // capped far below fair share
		demand("big", 1*gbps, 0.03, "link"),   // link-limited at 95 Mbps
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Saturated) != 1 || a.Saturated[0] != "link" {
		t.Fatalf("saturated = %v, want [link]", a.Saturated)
	}
	base := n.LossModel().Base
	if l := a.Loss[0]; math.Abs(l-base) > base/10 {
		t.Fatalf("cap-limited flow loss = %v, want ≈ base %v", l, base)
	}
	if l := a.Loss[1]; l <= base*2 {
		t.Fatalf("link-limited flow loss = %v, want Mathis loss above base", l)
	}
}

// TestAllocateDenseReusesResult checks that AllocateDense reuses the
// caller's DenseAllocation and matches a fresh result exactly.
func TestAllocateDenseReusesResult(t *testing.T) {
	n := singleLinkNet(100 * mbps)
	ds := []Demand{
		demand("a", 1*gbps, 0.03, "link"),
		demand("b", 10*mbps, 0.03, "link"),
	}
	want, err := allocate(n, ds)
	if err != nil {
		t.Fatal(err)
	}
	var got DenseAllocation
	var rate *float64
	for i := 0; i < 3; i++ { // repeated calls must not accumulate state
		if err := n.AllocateDense(&got, ds); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			rate = &got.Rate[0]
		} else if &got.Rate[0] != rate {
			t.Fatalf("call %d reallocated the caller's Rate slice", i)
		}
	}
	if err := sameAlloc(&got, want); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAllocate measures the steady-state allocation path: 64 flows
// over a two-resource path with the result written into a reused
// DenseAllocation, exercising the Network's scratch arena.
func BenchmarkAllocate(b *testing.B) {
	n := New()
	n.AddResource(Resource{ID: "link", Kind: Link, Capacity: 10 * gbps})
	n.AddResource(Resource{ID: "store", Kind: Storage, Capacity: 8 * gbps})
	ds := make([]Demand, 64)
	for i := range ds {
		ds[i] = demand(fmt.Sprintf("f%d", i), 500*mbps, 0.03, "store", "link")
	}
	var alloc DenseAllocation
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.AllocateDense(&alloc, ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocate64Flows is the ≥64-flow steady-state path through
// the scratch arena. It asserts zero allocations per call: the large
// case must ride the same reuse as the small one.
func BenchmarkAllocate64Flows(b *testing.B) {
	n := New()
	n.AddResource(Resource{ID: "link", Kind: Link, Capacity: 10 * gbps})
	n.AddResource(Resource{ID: "store", Kind: Storage, Capacity: 8 * gbps})
	ds := make([]Demand, 64)
	for i := range ds {
		ds[i] = demand(fmt.Sprintf("f%d", i), 500*mbps, 0.03, "store", "link")
	}
	var alloc DenseAllocation
	if err := n.AllocateDense(&alloc, ds); err != nil { // warm the arena
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

// TestJoinAllocationIsAmortised: a fleet whose sessions join one per
// full step grows every per-demand array by one element per call. The
// bytes that growth allocates must be amortised — flat per join,
// within 25 %, whether 1 000 or 4 000 sessions have joined — rather
// than a re-copy of every array at every join, which makes the bytes
// per join grow with the fleet.
func TestJoinAllocationIsAmortised(t *testing.T) {
	perJoin := func(n int) float64 {
		net := singleLinkNet(10 * gbps)
		demands := make([]Demand, n)
		for i := range demands {
			demands[i] = demand(fmt.Sprintf("s%05d", i), float64(1+i%7)*mbps, 0.01, "link")
		}
		var d DenseAllocation
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 1; k <= n; k++ {
			if err := net.AllocateDense(&d, demands[:k]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	small, large := perJoin(1000), perJoin(4000)
	t.Logf("bytes allocated per join: %.0f at 1 000 sessions, %.0f at 4 000", small, large)
	if large > 1.25*small || small > 1.25*large {
		t.Errorf("bytes per join %.0f at 1 000 sessions but %.0f at 4 000: not amortised", small, large)
	}
}
