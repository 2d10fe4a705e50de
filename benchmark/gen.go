package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/scenario"
)

// The generators below turn a seed into the program's inputs. They
// build scenario.Document values only to serialise them: the program
// under test is handed the JSON bytes and parses them itself. Sizes are
// fixed per workload; the seed moves only what the work should not
// depend on (scenario seeds, join offsets, wave times and rates), so
// ten seeds time the same amount of work.

var fleetAlgorithms = []string{"hc", "gd", "bo"}

// fleetAgent is the roster entry every fleet session shares: the
// fleet-wide interned dataset and a concurrency domain of 8.
func fleetAgent(id, algo string, count int, joinAt, stagger float64) scenario.AgentSpec {
	return scenario.AgentSpec{
		ID: id, Count: count, Algorithm: algo,
		JoinAt: joinAt, JoinStagger: stagger,
		MaxConcurrency: 8,
		Dataset:        &scenario.DatasetSpec{Label: "fleet"},
	}
}

// round3 and round6 keep generated times and rates readable in the
// checked-in documents.
func round3(v float64) float64 { return math.Round(v*1e3) / 1e3 }
func round6(v float64) float64 { return math.Round(v*1e6) / 1e6 }

// genFleetSteady is the steady-contention fleet: sessions split evenly
// over hc/gd/bo on one 10 Gbps bottleneck, all joined within the first
// twelfth of the horizon, nothing mutating afterwards.
func genFleetSteady(seed int64, sessions int, duration float64) *scenario.Document {
	rng := rand.New(rand.NewSource(seed))
	doc := &scenario.Document{
		Version:         scenario.Version,
		Name:            "fleet-steady",
		Preset:          "fleet",
		Seed:            1 + rng.Int63n(1_000_000),
		DurationSeconds: duration,
	}
	window := duration / 12
	per := sessions / 3
	for i, algo := range fleetAlgorithms {
		count := per
		if i == 0 {
			count = sessions - 2*per
		}
		stagger := window / float64(count)
		doc.Agents = append(doc.Agents, fleetAgent(algo, algo, count, round6(rng.Float64()*stagger), round6(stagger)))
	}
	return doc
}

// churnLinks is the number of pinned bottleneck links (and so shards)
// of the churn fleet.
const churnLinks = 4

// churnUnit is the granularity of the churn fleet's size: links ×
// sixths of the roster × algorithms.
const churnUnit = churnLinks * 6 * 3

// genFleetChurn is the "writes beside reads" fleet: the roster spread
// over four pinned links, a sixth of it leaving at half time, a sixth
// joining just after, and a cross-traffic wave on every link every
// eighth of the horizon until three quarters of it. The last tenth is
// left quiet so the equilibrium metrics read a settled fleet. sessions
// is rounded down to a multiple of churnUnit.
func genFleetChurn(seed int64, sessions int, duration float64) *scenario.Document {
	rng := rand.New(rand.NewSource(seed))
	per := sessions / churnUnit
	if per < 1 {
		per = 1
	}
	doc := &scenario.Document{
		Version:         scenario.Version,
		Name:            "fleet-churn",
		Preset:          "fleet",
		Seed:            1 + rng.Int63n(1_000_000),
		DurationSeconds: duration,
	}
	topo := &scenario.TopologySpec{
		Nodes: []string{"src", "sw1", "sw2", "dst"},
		Src:   "src", Dst: "dst",
		Links: []scenario.LinkSpec{{ID: "access-src", A: "src", B: "sw1", Capacity: 400e9, Latency: 0.001}},
	}
	for k := 0; k < churnLinks; k++ {
		topo.Links = append(topo.Links, scenario.LinkSpec{
			ID: fmt.Sprintf("lnk%d", k), A: "sw1", B: "sw2", Capacity: 10e9, Latency: 0.013,
		})
	}
	topo.Links = append(topo.Links, scenario.LinkSpec{ID: "access-dst", A: "sw2", B: "dst", Capacity: 400e9, Latency: 0.001})
	doc.Topology = topo

	window := duration / 12
	half := duration / 2
	for k := 0; k < churnLinks; k++ {
		link := fmt.Sprintf("lnk%d", k)
		for _, algo := range fleetAlgorithms {
			add := func(kind string, count int, joinAt, leaveAt float64) {
				stagger := window / float64(count)
				a := fleetAgent(fmt.Sprintf("l%d-%s-%s", k, algo, kind), algo, count,
					round6(joinAt+rng.Float64()*stagger), round6(stagger))
				a.Link = link
				a.LeaveAt = leaveAt
				doc.Agents = append(doc.Agents, a)
			}
			add("stay", 4*per, 0, 0)
			add("leave", per, 0, half)
			add("late", per, half, 0)
		}
	}
	period, wave := duration/8, duration/24
	for k := 0; k < churnLinks; k++ {
		for j := 1; j <= 6; j++ {
			doc.Mutations = append(doc.Mutations, scenario.MutationSpec{
				At:              round3(float64(j)*period + float64(k)*wave/5 + rng.Float64()*wave/5),
				Kind:            scenario.KindCrossTraffic,
				Link:            fmt.Sprintf("lnk%d", k),
				Rate:            round3(4+2*rng.Float64()) * 1e9,
				DurationSeconds: wave,
			})
		}
	}
	return doc
}

// genHeavy is one service-mix "heavy" document, shaped like
// examples/scenarios/fleet-flap.json: agents split over hc/gd/bo on the
// fleet preset with one cross-traffic wave mid-run.
func genHeavy(rng *rand.Rand, name string, agents int, duration float64) *scenario.Document {
	doc := &scenario.Document{
		Version:         scenario.Version,
		Name:            name,
		Preset:          "fleet",
		Seed:            1 + rng.Int63n(1_000_000_000),
		DurationSeconds: duration,
	}
	per := agents / 3
	if per < 1 {
		per = 1
	}
	for i, algo := range fleetAlgorithms {
		doc.Agents = append(doc.Agents, fleetAgent(algo, algo, per, float64(i), 3))
	}
	doc.Mutations = []scenario.MutationSpec{{
		At:              round3(duration * (0.4 + 0.2*rng.Float64())),
		Kind:            scenario.KindCrossTraffic,
		Rate:            round3(6+2*rng.Float64()) * 1e9,
		DurationSeconds: duration / 5,
	}}
	return doc
}

// Request classes of the service mix.
const (
	classHit   = "hit"
	classLight = "light"
	classHeavy = "heavy"
	classDup   = "dup"
)

// serviceClasses lists the latency classes in reporting order; dup
// requests are heavy documents and report under heavy.
var serviceClasses = []string{classHit, classLight, classHeavy}

// serviceClients is the number of closed-loop clients, one keep-alive
// connection each. It is part of the workload, not of the host: the
// request list must not change with the machine.
const serviceClients = 2

// request is one submission a client makes.
type request struct {
	Class string `json:"class"`
	// SSE follows the scenario over the event stream; otherwise the
	// client polls.
	SSE  bool            `json:"sse,omitempty"`
	Body json.RawMessage `json:"body"`
}

// requestList is the whole service-mix input: the hot documents that
// set-up completes before the pass, and each client's sequence. A dup
// request sits at the same index in both sequences with the same body;
// the clients meet at a barrier there and POST together.
type requestList struct {
	Prime   []json.RawMessage         `json:"prime"`
	Clients [serviceClients][]request `json:"clients"`
}

// serviceSizes is the request count per class. Hit, light and heavy are
// dealt evenly to the clients, so each should be even.
type serviceSizes struct {
	Hit, Light, Heavy, DupPairs int
	HeavyAgents                 int
	HeavyDuration               float64
}

// hotDocs is the number of already-completed documents the hit class
// re-POSTs: well under the service's 64-entry result cache.
const hotDocs = 8

func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("benchmark: marshal %T: %v", v, err))
	}
	return b
}

// flatRequest is the service's legacy flat request shape.
type flatRequest struct {
	Testbed         string  `json:"testbed"`
	Algorithm       string  `json:"algorithm"`
	Agents          int     `json:"agents,omitempty"`
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	Seed            int64   `json:"seed"`
}

// docRequest wraps a scenario document as a POST body.
func docRequest(doc *scenario.Document) json.RawMessage {
	return mustJSON(struct {
		Scenario *scenario.Document `json:"scenario"`
	}{doc})
}

// genRequests builds the service mix for a seed.
func genRequests(seed int64, sz serviceSizes) *requestList {
	rng := rand.New(rand.NewSource(seed))
	list := &requestList{}

	// Hot documents: half flat requests, half small scenario documents,
	// so hits render both body shapes.
	testbeds := []string{"emulab", "hpclab", "xsede", "campus"}
	for i := 0; i < hotDocs; i++ {
		if i%2 == 0 {
			list.Prime = append(list.Prime, mustJSON(flatRequest{
				Testbed: testbeds[(i/2)%len(testbeds)], Algorithm: fleetAlgorithms[i%3],
				Agents: 1 + i%3, Seed: 1 + rng.Int63n(1_000_000),
			}))
		} else {
			list.Prime = append(list.Prime, docRequest(genHeavy(rng, fmt.Sprintf("hot%d", i), 12, 300)))
		}
	}

	lightSeed := 1 + rng.Int63n(1_000_000_000)
	var perClient [serviceClients][]request
	for c := 0; c < serviceClients; c++ {
		var reqs []request
		for i := 0; i < sz.Hit/serviceClients; i++ {
			reqs = append(reqs, request{Class: classHit, Body: list.Prime[rng.Intn(hotDocs)]})
		}
		for i := 0; i < sz.Light/serviceClients; i++ {
			reqs = append(reqs, request{Class: classLight, Body: mustJSON(flatRequest{
				Testbed: "emulab", Algorithm: "gd", DurationSeconds: 30, Seed: lightSeed,
			})})
			lightSeed++
		}
		for i := 0; i < sz.Heavy/serviceClients; i++ {
			doc := genHeavy(rng, fmt.Sprintf("heavy-c%d-%d", c, i), sz.HeavyAgents, sz.HeavyDuration)
			reqs = append(reqs, request{Class: classHeavy, SSE: i%2 == 0, Body: docRequest(doc)})
		}
		rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		perClient[c] = reqs
	}

	// Dup pairs go in at evenly spaced, equal indices of both sequences.
	base := len(perClient[0])
	for c := 0; c < serviceClients; c++ {
		list.Clients[c] = make([]request, 0, base+sz.DupPairs)
	}
	next := 0
	for j := 0; j <= sz.DupPairs; j++ {
		upto := base
		if j < sz.DupPairs {
			upto = (j + 1) * base / (sz.DupPairs + 1)
		}
		for c := 0; c < serviceClients; c++ {
			list.Clients[c] = append(list.Clients[c], perClient[c][next:upto]...)
		}
		next = upto
		if j < sz.DupPairs {
			dup := request{Class: classDup, SSE: j%2 == 0,
				Body: docRequest(genHeavy(rng, fmt.Sprintf("dup%d", j), sz.HeavyAgents, sz.HeavyDuration))}
			for c := 0; c < serviceClients; c++ {
				list.Clients[c] = append(list.Clients[c], dup)
			}
		}
	}
	return list
}

// total is the number of submissions in one pass.
func (l *requestList) total() int {
	n := 0
	for _, c := range l.Clients {
		n += len(c)
	}
	return n
}

// count returns the number of submissions of one class.
func (l *requestList) count(class string) int {
	n := 0
	for _, c := range l.Clients {
		for _, r := range c {
			if r.Class == class {
				n++
			}
		}
	}
	return n
}

// digest is the SHA-256 of the list's JSON encoding: the identity the
// checked-in manifest pins without carrying ten thousand bodies.
func (l *requestList) digest() string {
	sum := sha256.Sum256(mustJSON(l))
	return hex.EncodeToString(sum[:])
}
