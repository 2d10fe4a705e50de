package scenario

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"testing"
	"time"
	_ "unsafe" // go:linkname, for the test hook below

	"repro/internal/parallel"
	"repro/internal/session"
	"repro/internal/testbed"
	"repro/internal/trace"
	"repro/internal/transfer"
)

// Goldens of goldenFleetDoc's full-recording Timeline and merged event
// stream. Worker width must not move them; regenerate (and say why)
// only for a deliberate change to the simulated numbers, their order,
// or the event taxonomy. Last regenerated, with `go test -run
// TestFleetGolden ./internal/scenario/`, when documents' BO agents moved
// to the fleet constructor's random stream (core.NewFleetAgent).
const (
	goldenFleetTimeline = "13c02d36504a6340de5b47ce275d922f18b4e7edfbc96d0a29bf9c9eae6de7c5"
	goldenFleetEvents   = "071fe10c71ecbe96fd136274932e51fa76bb926b51b4d3e249898a27ed8b15a2"
)

// decideFanout is testbed's fan-out threshold, an unexported variable
// that exists so tests can lower it; production has no setter, and this
// package's tests reach it by name.
//
//go:linkname decideFanout repro/internal/testbed.decideFanout
var decideFanout int

// goldenFleetDoc is a 1 000-session fleet over four pinned bottleneck
// links: per link 210 long-lived hc/gd/bo sessions, 20 that leave at
// half time, 15 late joiners, and 5 short transfers that drain — so
// joins, leaves, finishes, a cross-traffic wave, and the shard merge
// all contribute to the hashed output.
func goldenFleetDoc() *Document {
	doc := &Document{
		Name:            "golden-fleet",
		Preset:          "fleet",
		Seed:            7,
		DurationSeconds: 60,
		Topology: &TopologySpec{
			Nodes: []string{"src", "sw1", "sw2", "dst"},
			Src:   "src",
			Dst:   "dst",
			Links: []LinkSpec{{ID: "access-src", A: "src", B: "sw1", Capacity: 400e9, Latency: 0.001}},
		},
	}
	shared := &DatasetSpec{Label: "fleet"}
	for k := 0; k < 4; k++ {
		link := fmt.Sprintf("lnk%d", k)
		doc.Topology.Links = append(doc.Topology.Links,
			LinkSpec{ID: link, A: "sw1", B: "sw2", Capacity: 10e9, Latency: 0.013})
		for _, algo := range []string{"hc", "gd", "bo"} {
			doc.Agents = append(doc.Agents, AgentSpec{
				ID: fmt.Sprintf("l%d-%s-", k, algo), Count: 70, Algorithm: algo, Link: link,
				JoinStagger: 0.07, MaxConcurrency: 8, Dataset: shared,
			})
		}
		doc.Agents = append(doc.Agents,
			AgentSpec{ID: fmt.Sprintf("l%d-leave-", k), Count: 20, Algorithm: "hc", Link: link,
				JoinAt: 1, JoinStagger: 0.1, LeaveAt: 30, MaxConcurrency: 8, Dataset: shared},
			AgentSpec{ID: fmt.Sprintf("l%d-late-", k), Count: 15, Algorithm: "gd", Link: link,
				JoinAt: 31, JoinStagger: 0.2, MaxConcurrency: 8, Dataset: shared},
			AgentSpec{ID: fmt.Sprintf("l%d-short-", k), Count: 5, Algorithm: "gd", Link: link,
				JoinAt: 2, JoinStagger: 3, MaxConcurrency: 4, Dataset: &DatasetSpec{Count: 4, Size: 4_000_000}},
		)
		doc.Mutations = append(doc.Mutations, MutationSpec{
			At: 20 + float64(k), Kind: KindCrossTraffic, Link: link, Rate: 4e9, DurationSeconds: 10,
		})
	}
	doc.Topology.Links = append(doc.Topology.Links,
		LinkSpec{ID: "access-dst", A: "sw2", B: "dst", Capacity: 400e9, Latency: 0.001})
	return doc
}

func putFloats(w io.Writer, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		w.Write(buf[:])
	}
}

func hashTimeSet(w io.Writer, ts *trace.TimeSet) {
	for _, s := range ts.Series {
		fmt.Fprintf(w, "%s:%d;", s.Name, len(s.Points))
		for _, p := range s.Points {
			putFloats(w, p.Time, p.Value)
		}
	}
}

// hashTimeline digests every series (in creation order, names and
// points bit for bit) and the sorted completion times.
func hashTimeline(tl *testbed.Timeline) string {
	sum := sha256.New()
	w := bufio.NewWriter(sum)
	hashTimeSet(w, &tl.Throughput)
	hashTimeSet(w, &tl.Concurrency)
	hashTimeSet(w, &tl.Loss)
	ids := make([]string, 0, len(tl.Finished))
	for id := range tl.Finished {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "%s=", id)
		putFloats(w, tl.Finished[id])
	}
	w.Flush()
	return hex.EncodeToString(sum.Sum(nil))
}

// hashEvent digests the rendered content of one event: kind, session,
// time, sample, setting, and error text. Driver bookkeeping that no
// consumer renders is deliberately left out.
func hashEvent(w io.Writer, e session.Event) {
	fmt.Fprintf(w, "%s|%s|%v|%v|", e.Kind, e.Session, e.Sample.Setting, e.Setting)
	putFloats(w, e.Time, e.Sample.Duration, e.Sample.Throughput, e.Sample.Loss, e.Sample.Time)
	if e.Err != nil {
		io.WriteString(w, e.Err.Error())
	}
}

// TestFleetGolden runs goldenFleetDoc with full recording on 1, 4, 8
// and 32 workers — over the document's four shards that is decide width
// 1, 1, 2 and 8, with the fan-out threshold lowered to two isolated
// decisions so the parallel phase runs throughout — and checks the
// Timeline and the merged event stream against the checked-in hashes.
func TestFleetGolden(t *testing.T) {
	defer func(old int) { decideFanout = old }(decideFanout)
	decideFanout = 2
	for _, workers := range []int{1, 4, 8, 32} {
		run, err := goldenFleetDoc().Build()
		if err != nil {
			t.Fatal(err)
		}
		if got := len(run.AgentIDs); got != 1000 {
			t.Fatalf("golden fleet has %d sessions, want 1000", got)
		}
		sum := sha256.New()
		w := bufio.NewWriter(sum)
		counts := map[session.Kind]int{}
		tl, err := run.Execute(ExecOptions{Workers: workers, Events: func(e session.Event) {
			counts[e.Kind]++
			hashEvent(w, e)
		}})
		if err != nil {
			t.Fatal(err)
		}
		w.Flush()
		if counts[session.Join] != 1000 || counts[session.Leave] != 80 || counts[session.Finish] != 20 || counts[session.Error] != 0 {
			t.Errorf("shards=%d: event counts %v, want 1000 joins, 80 leaves, 20 finishes, no errors", workers, counts)
		}
		if got := hashTimeline(tl); got != goldenFleetTimeline {
			t.Errorf("shards=%d: timeline sha256 = %s, want %s", workers, got, goldenFleetTimeline)
		}
		if got := hex.EncodeToString(sum.Sum(nil)); got != goldenFleetEvents {
			t.Errorf("shards=%d: event stream sha256 = %s, want %s", workers, got, goldenFleetEvents)
		}
	}
}

// rendezvous is a transparent controller wrapper whose first decision
// waits until every one of its peers has reached its own — which can
// only happen if their shards are being stepped at the same time.
type rendezvous struct {
	inner   testbed.Controller
	met     *bool
	arrive  func()
	allHere <-chan struct{}
	timeout *atomic.Bool
}

func (r *rendezvous) Decide(s transfer.Sample) transfer.Setting {
	if !*r.met {
		*r.met = true
		r.arrive()
		select {
		case <-r.allHere:
		case <-time.After(10 * time.Second):
			r.timeout.Store(true)
		}
	}
	return r.inner.Decide(s)
}

// TestZeroWorkersMeansHarnessDefault: ExecOptions.Workers (and
// ShardSet.SetWorkers beneath it) document 0 as "the parallel harness
// default". With that default at 4, the golden fleet's four shards must
// really step side by side — the first controller of each shard waits
// for the other three — and produce the checked-in bytes.
func TestZeroWorkersMeansHarnessDefault(t *testing.T) {
	old := parallel.Workers()
	defer parallel.SetWorkers(old)
	parallel.SetWorkers(4)

	run, err := goldenFleetDoc().Build()
	if err != nil {
		t.Fatal(err)
	}
	var (
		arrived  atomic.Int32
		timedOut atomic.Bool
		allHere  = make(chan struct{})
	)
	for _, sh := range run.Shards {
		p := &run.Participants[sh.Participants[0]]
		p.Controller = &rendezvous{inner: p.Controller, met: new(bool), allHere: allHere, timeout: &timedOut,
			arrive: func() {
				if int(arrived.Add(1)) == len(run.Shards) {
					close(allHere)
				}
			}}
	}
	sum := sha256.New()
	w := bufio.NewWriter(sum)
	tl, err := run.Execute(ExecOptions{Workers: 0, Events: func(e session.Event) { hashEvent(w, e) }})
	if err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if timedOut.Load() {
		t.Error("a shard's first decision waited 10 s for the other shards to reach theirs: Workers 0 did not step them side by side")
	}
	if got := hashTimeline(tl); got != goldenFleetTimeline {
		t.Errorf("timeline sha256 = %s, want %s", got, goldenFleetTimeline)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != goldenFleetEvents {
		t.Errorf("event stream sha256 = %s, want %s", got, goldenFleetEvents)
	}
}

// countingReleaser is a transparent controller wrapper that forwards
// Decide, DecideIsolated and Release, counting its releases and any
// decision asked of it after one.
type countingReleaser struct {
	inner    testbed.Controller
	releases int
	late     int
}

func (c *countingReleaser) Decide(s transfer.Sample) transfer.Setting {
	if c.releases > 0 {
		c.late++
	}
	return c.inner.Decide(s)
}

func (c *countingReleaser) DecideIsolated() bool {
	iso, ok := c.inner.(session.IsolatedDecider)
	return ok && iso.DecideIsolated()
}

func (c *countingReleaser) Release() {
	c.releases++
	if r, ok := c.inner.(session.Releaser); ok {
		r.Release()
	}
}

// TestEndedSessionsReleaseTheirControllers runs goldenFleetDoc with
// every controller wrapped in a counting Releaser, at decide width 2
// with the fan-out threshold lowered so isolated decisions run in
// parallel, and checks that each of the 100 sessions that ended (80
// leaves, 20 finishes) released its controller exactly once, that no
// running session released, and that no controller decided after its
// release. Under -race it also checks that a release never runs beside
// a parallel decide.
func TestEndedSessionsReleaseTheirControllers(t *testing.T) {
	defer func(old int) { decideFanout = old }(decideFanout)
	decideFanout = 2
	run, err := goldenFleetDoc().Build()
	if err != nil {
		t.Fatal(err)
	}
	wrapped := make([]*countingReleaser, len(run.Participants))
	for i := range run.Participants {
		p := &run.Participants[i]
		wrapped[i] = &countingReleaser{inner: p.Controller}
		p.Controller = wrapped[i]
	}
	ended := map[string]int{}
	_, err = run.Execute(ExecOptions{Workers: 8, Events: func(e session.Event) {
		switch e.Kind {
		case session.Leave, session.Finish, session.Error:
			ended[e.Session]++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ended) != 100 {
		t.Fatalf("%d sessions ended, want 100 (80 leaves, 20 finishes)", len(ended))
	}
	total := 0
	for i, c := range wrapped {
		id := run.AgentIDs[i]
		if c.releases != ended[id] {
			t.Errorf("session %s: %d terminal events, %d releases", id, ended[id], c.releases)
		}
		if c.late > 0 {
			t.Errorf("session %s: decided %d times after its release", id, c.late)
		}
		total += c.releases
	}
	if total != 100 {
		t.Errorf("%d releases, want 100", total)
	}
}
