package netsim

import (
	"fmt"
	"math"
	"sort"
)

// Topology is a named graph of nodes connected by capacity/latency
// edges, with shortest-latency routing. It builds the Resource set and
// per-flow paths for Network.AllocateDense, so experiments can express
// multi-site layouts (the paper's Figure 3 dumbbell, cross-traffic
// scenarios) instead of a single hardcoded path.
type Topology struct {
	nodes map[string]bool
	edges map[string]*edge // by edge ID
	adj   map[string][]*edge
}

type edge struct {
	id       string
	a, b     string
	capacity float64
	latency  float64 // one-way, seconds
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{
		nodes: make(map[string]bool),
		edges: make(map[string]*edge),
		adj:   make(map[string][]*edge),
	}
}

// AddNode registers a node. Adding an existing node is a no-op.
func (t *Topology) AddNode(name string) {
	if name == "" {
		panic("netsim: empty node name")
	}
	t.nodes[name] = true
}

// AddLink connects two existing nodes with a bidirectional link of the
// given capacity (bits/s) and one-way latency (seconds). The edge ID
// must be unique. It panics on unknown nodes or bad parameters —
// topology construction errors are programming errors.
func (t *Topology) AddLink(id, a, b string, capacity, latency float64) {
	if id == "" {
		panic("netsim: empty link ID")
	}
	if _, dup := t.edges[id]; dup {
		panic(fmt.Sprintf("netsim: duplicate link %q", id))
	}
	if !t.nodes[a] || !t.nodes[b] {
		panic(fmt.Sprintf("netsim: link %q references unknown node (%q, %q)", id, a, b))
	}
	if capacity <= 0 || latency < 0 {
		panic(fmt.Sprintf("netsim: link %q bad parameters cap=%v lat=%v", id, capacity, latency))
	}
	e := &edge{id: id, a: a, b: b, capacity: capacity, latency: latency}
	t.edges[id] = e
	t.adj[a] = append(t.adj[a], e)
	t.adj[b] = append(t.adj[b], e)
}

// Resources returns one Link resource per edge, for Network construction.
func (t *Topology) Resources() []Resource {
	ids := make([]string, 0, len(t.edges))
	for id := range t.edges {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Resource, 0, len(ids))
	for _, id := range ids {
		e := t.edges[id]
		out = append(out, Resource{ID: e.id, Kind: Link, Capacity: e.capacity})
	}
	return out
}

// Route returns the minimum-latency path between two nodes as edge IDs
// plus the path's round-trip time (2× the summed one-way latencies).
// It returns an error when either node is unknown or no path exists.
func (t *Topology) Route(from, to string) (links []string, rtt float64, err error) {
	if !t.nodes[from] {
		return nil, 0, fmt.Errorf("netsim: unknown node %q", from)
	}
	if !t.nodes[to] {
		return nil, 0, fmt.Errorf("netsim: unknown node %q", to)
	}
	if from == to {
		return nil, 0, nil
	}
	// Dijkstra over latency; topologies are small (tens of nodes), so
	// a linear-scan priority selection is fine. Equal-latency candidates
	// tie-break on node name so the chosen route is a pure function of
	// the topology — parallel equal-latency paths must route (and
	// therefore shard) identically on every run.
	dist := map[string]float64{from: 0}
	prevEdge := map[string]*edge{}
	visited := map[string]bool{}
	for {
		cur, best := "", math.Inf(1)
		for n, d := range dist {
			if visited[n] {
				continue
			}
			if d < best || (d == best && (cur == "" || n < cur)) {
				cur, best = n, d
			}
		}
		if cur == "" {
			break
		}
		if cur == to {
			break
		}
		visited[cur] = true
		for _, e := range t.adj[cur] {
			next := e.b
			if next == cur {
				next = e.a
			}
			if nd := best + e.latency; nd < distOr(dist, next) {
				dist[next] = nd
				prevEdge[next] = e
			}
		}
	}
	if _, ok := dist[to]; !ok {
		return nil, 0, fmt.Errorf("netsim: no path from %q to %q", from, to)
	}
	// Walk back.
	for n := to; n != from; {
		e := prevEdge[n]
		links = append(links, e.id)
		if e.a == n {
			n = e.b
		} else {
			n = e.a
		}
	}
	// Reverse into from→to order.
	for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
		links[i], links[j] = links[j], links[i]
	}
	return links, 2 * dist[to], nil
}

// RouteVia returns the minimum-latency path from `from` to `to` that
// traverses the named link, as edge IDs plus the path round-trip time.
// Both orientations of the pinned link are considered; the cheaper one
// wins, ties preferring the link's declared a→b orientation. A
// candidate whose approach or departure legs already cross the pinned
// link (a non-simple path) is discarded. It returns an error for
// unknown nodes or links, or when no simple path through the link
// exists.
func (t *Topology) RouteVia(from, to, via string) (links []string, rtt float64, err error) {
	e, ok := t.edges[via]
	if !ok {
		return nil, 0, fmt.Errorf("netsim: unknown link %q", via)
	}
	bestLinks, bestRTT := []string(nil), math.Inf(1)
	for _, orient := range [2][2]string{{e.a, e.b}, {e.b, e.a}} {
		head, tail := orient[0], orient[1]
		l1, r1, err1 := t.Route(from, head)
		if err1 != nil {
			if !t.nodes[from] {
				return nil, 0, err1
			}
			continue
		}
		l2, r2, err2 := t.Route(tail, to)
		if err2 != nil {
			if !t.nodes[to] {
				return nil, 0, err2
			}
			continue
		}
		simple := true
		for _, id := range l1 {
			if id == via {
				simple = false
			}
		}
		for _, id := range l2 {
			if id == via {
				simple = false
			}
		}
		if !simple {
			continue
		}
		if total := r1 + 2*e.latency + r2; total < bestRTT {
			bestRTT = total
			bestLinks = make([]string, 0, len(l1)+1+len(l2))
			bestLinks = append(bestLinks, l1...)
			bestLinks = append(bestLinks, via)
			bestLinks = append(bestLinks, l2...)
		}
	}
	if bestLinks == nil {
		return nil, 0, fmt.Errorf("netsim: no simple path from %q to %q via link %q", from, to, via)
	}
	return bestLinks, bestRTT, nil
}

func distOr(m map[string]float64, k string) float64 {
	if v, ok := m[k]; ok {
		return v
	}
	return math.Inf(1)
}

// Dumbbell returns the paper's Figure 3 topology: sender-side hosts and
// receiver-side hosts on fast access links joined by one bottleneck
// link, plus the route helper outputs for a transfer between the first
// host pair.
//
//	senders → [access 1G] → switchA —[bottleneck]— switchB → receivers
func Dumbbell(hosts int, accessCap, bottleneckCap, bottleneckLatency float64) *Topology {
	if hosts < 1 {
		panic("netsim: dumbbell needs at least one host pair")
	}
	t := NewTopology()
	t.AddNode("switchA")
	t.AddNode("switchB")
	t.AddLink("bottleneck", "switchA", "switchB", bottleneckCap, bottleneckLatency)
	for i := 0; i < hosts; i++ {
		src := fmt.Sprintf("src%d", i)
		dst := fmt.Sprintf("dst%d", i)
		t.AddNode(src)
		t.AddNode(dst)
		t.AddLink("access-"+src, src, "switchA", accessCap, 0.0005)
		t.AddLink("access-"+dst, dst, "switchB", accessCap, 0.0005)
	}
	return t
}
