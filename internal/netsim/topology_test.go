package netsim

import (
	"math"
	"testing"
)

func TestTopologyConstructionPanics(t *testing.T) {
	tp := NewTopology()
	tp.AddNode("a")
	tp.AddNode("b")
	tp.AddLink("l1", "a", "b", 1e9, 0.01)
	cases := []func(){
		func() { tp.AddNode("") },
		func() { tp.AddLink("", "a", "b", 1, 0) },
		func() { tp.AddLink("l1", "a", "b", 1, 0) },     // duplicate
		func() { tp.AddLink("l2", "a", "ghost", 1, 0) }, // unknown node
		func() { tp.AddLink("l3", "a", "b", 0, 0) },     // zero capacity
		func() { tp.AddLink("l4", "a", "b", 1, -1) },    // negative latency
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			c()
		}()
	}
}

func TestRouteShortestLatency(t *testing.T) {
	// a—b direct (slow) vs a—c—b (two fast hops): routing must take
	// the lower-latency two-hop path.
	tp := NewTopology()
	for _, n := range []string{"a", "b", "c"} {
		tp.AddNode(n)
	}
	tp.AddLink("direct", "a", "b", 1e9, 0.100)
	tp.AddLink("ac", "a", "c", 1e9, 0.010)
	tp.AddLink("cb", "c", "b", 1e9, 0.010)
	links, rtt, err := tp.Route("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 2 || links[0] != "ac" || links[1] != "cb" {
		t.Fatalf("route = %v, want [ac cb]", links)
	}
	if math.Abs(rtt-0.040) > 1e-9 {
		t.Fatalf("rtt = %v, want 40 ms", rtt)
	}
}

func TestRouteErrors(t *testing.T) {
	tp := NewTopology()
	tp.AddNode("a")
	tp.AddNode("b")
	tp.AddNode("island")
	tp.AddLink("ab", "a", "b", 1e9, 0.01)
	if _, _, err := tp.Route("ghost", "a"); err == nil {
		t.Error("unknown source accepted")
	}
	if _, _, err := tp.Route("a", "ghost"); err == nil {
		t.Error("unknown destination accepted")
	}
	if _, _, err := tp.Route("a", "island"); err == nil {
		t.Error("disconnected route accepted")
	}
	if links, rtt, err := tp.Route("a", "a"); err != nil || len(links) != 0 || rtt != 0 {
		t.Errorf("self route = (%v, %v, %v)", links, rtt, err)
	}
}

func TestDumbbellCrossTraffic(t *testing.T) {
	// Two host pairs share the dumbbell bottleneck: flows on separate
	// pairs contend only on the bottleneck link, and max-min splits it
	// evenly — the Figure 3 scenario expressed through the topology
	// layer.
	tp := Dumbbell(2, 1e9, 100e6, 0.015)
	net := tp.BuildNetwork()

	path0, rtt0, err := tp.Route("src0", "dst0")
	if err != nil {
		t.Fatal(err)
	}
	path1, _, err := tp.Route("src1", "dst1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rtt0-0.032) > 1e-9 {
		t.Fatalf("dumbbell rtt = %v, want 32 ms", rtt0)
	}
	alloc, err := allocate(net, []Demand{
		{FlowID: "f0", Resources: path0, Cap: 1e9, RTT: rtt0, Weight: 5},
		{FlowID: "f1", Resources: path1, Cap: 1e9, RTT: rtt0, Weight: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 10 flows across a 100 Mbps bottleneck: 10 Mbps each.
	for i := 0; i < 2; i++ {
		if got := alloc.Rate[i]; math.Abs(got-10e6) > 1e5 {
			t.Fatalf("rate[f%d] = %v, want 10 Mbps", i, got)
		}
	}
	found := false
	for _, s := range alloc.Saturated {
		if s == "bottleneck" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bottleneck not saturated: %v", alloc.Saturated)
	}
}

func TestDumbbellAccessLinkBinds(t *testing.T) {
	// With a huge bottleneck, the access links bind instead.
	tp := Dumbbell(1, 100e6, 10e9, 0.015)
	net := tp.BuildNetwork()
	path, rtt, err := tp.Route("src0", "dst0")
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := allocate(net, []Demand{{FlowID: "f", Resources: path, Cap: 1e9, RTT: rtt}})
	if err != nil {
		t.Fatal(err)
	}
	if got := alloc.Rate[0]; math.Abs(got-100e6) > 1e5 {
		t.Fatalf("rate = %v, want 100 Mbps (access-bound)", got)
	}
}

func TestTopologyNodesAndResources(t *testing.T) {
	tp := Dumbbell(2, 1e9, 100e6, 0.015)
	nodes := tp.Nodes()
	if len(nodes) != 6 {
		t.Fatalf("nodes = %v, want 6", nodes)
	}
	res := tp.Resources()
	if len(res) != 5 {
		t.Fatalf("resources = %d, want 5 (4 access + bottleneck)", len(res))
	}
	for _, r := range res {
		if r.Kind != Link || r.Capacity <= 0 {
			t.Fatalf("bad resource %+v", r)
		}
	}
}

func TestDumbbellPanicsOnZeroHosts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dumbbell(0, ...) did not panic")
		}
	}()
	Dumbbell(0, 1e9, 1e8, 0.01)
}
