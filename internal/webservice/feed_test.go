package webservice

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/transfer"
)

// heavyDoc is the first heavy request of the benchmark's seed-1
// service-mix workload: 60 agents over hc/gd/bo on the fleet preset for
// 600 s with one cross-traffic wave. Its feed carries 34 170 records.
const heavyDoc = `{"scenario":{"version":1,"name":"heavy-c0-15","preset":"fleet","seed":79454645,"duration_seconds":600,"agents":[` +
	`{"id":"hc","count":20,"algorithm":"hc","join_stagger":3,"max_concurrency":8,"dataset":{"label":"fleet"}},` +
	`{"id":"gd","count":20,"algorithm":"gd","join_at":1,"join_stagger":3,"max_concurrency":8,"dataset":{"label":"fleet"}},` +
	`{"id":"bo","count":20,"algorithm":"bo","join_at":2,"join_stagger":3,"max_concurrency":8,"dataset":{"label":"fleet"}}],` +
	`"mutations":[{"at":330.579,"kind":"cross-traffic","duration_seconds":120,"rate":7664000000}]}}`

// lightDoc is a short three-agent flat request.
const lightDoc = `{"testbed":"emulab","agents":3,"stagger_seconds":20,"duration_seconds":120}`

// heavySSEGolden is the SHA-256 of the complete SSE body (every session
// frame and the terminal done event) of heavyDoc submitted as the first
// scenario of a fresh service. The encoding was pinned against the
// json.Marshal + Fprintf encoder the hand-written frame appender
// replaced; the hash was regenerated, with `go test -run
// TestHeavySSEGolden ./internal/webservice/`, when documents' BO agents
// moved to the fleet constructor's random stream.
const heavySSEGolden = "dd751e8606abafd03916407c79978ca98b01247cf1d5fc504b81aeedacaac0f3"

// sseBody reads a scenario's complete event stream.
func sseBody(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/api/scenarios/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// buildRun compiles a POST body into a runnable scenario.
func buildRun(tb testing.TB, body string) *scenario.Run {
	tb.Helper()
	var req ScenarioRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		tb.Fatal(err)
	}
	if err := req.normalise(); err != nil {
		tb.Fatal(err)
	}
	run, err := req.doc.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return run
}

// runEvents executes a POST body and returns its session events.
func runEvents(tb testing.TB, body string) []session.Event {
	tb.Helper()
	var evs []session.Event
	if _, err := buildRun(tb, body).Execute(scenario.ExecOptions{Events: func(e session.Event) { evs = append(evs, e) }}); err != nil {
		tb.Fatal(err)
	}
	return evs
}

// finishedFeed runs a POST body through a tracker and finishes it.
func finishedFeed(tb testing.TB, body string) *progressTracker {
	tb.Helper()
	p := newProgressTracker()
	if _, err := buildRun(tb, body).Execute(scenario.ExecOptions{Events: p.Sink()}); err != nil {
		tb.Fatal(err)
	}
	p.finish()
	return p
}

// doneScenario stores a finished scenario whose stream replays p.
func doneScenario(svc *Service, p *progressTracker) *Scenario {
	sc := &Scenario{ID: "s0001", progress: p, done: make(chan struct{})}
	sc.publish(scenarioState{Status: "done"})
	svc.mu.Lock()
	svc.insertLocked(sc)
	svc.mu.Unlock()
	return sc
}

// frameWriter is a flushable ResponseWriter that keeps (or, with
// discard, drops) the body and records the largest buffer written.
type frameWriter struct {
	header  http.Header
	body    []byte
	discard bool
	writes  int
	maxCap  int
}

func (w *frameWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}
func (w *frameWriter) WriteHeader(int) {}
func (w *frameWriter) Flush()          {}
func (w *frameWriter) Write(p []byte) (int, error) {
	w.writes++
	w.maxCap = max(w.maxCap, cap(p))
	if !w.discard {
		w.body = append(w.body, p...)
	}
	return len(p), nil
}

// serveEvents drives handleEvents for sc directly, without a socket.
func serveEvents(svc *Service, sc *Scenario, w *frameWriter) {
	req := httptest.NewRequest(http.MethodGet, "/api/scenarios/"+sc.ID+"/events", nil)
	req.SetPathValue("id", sc.ID)
	svc.handleEvents(w, req)
}

// checkFrame holds the frame appender to json.Marshal for one record:
// identical bytes, or a refusal exactly where json.Marshal errors.
func checkFrame(t *testing.T, rec EventRecord) {
	t.Helper()
	p := newProgressTracker()
	r := p.lower(rec)
	got, ok := appendSessionFrame(nil, r, p.names[r.agent])
	data, err := json.Marshal(rec)
	if err != nil {
		if ok {
			t.Fatalf("%+v: appender encoded %q, json.Marshal refused: %v", rec, got, err)
		}
		return
	}
	if want := fmt.Sprintf("event: session\ndata: %s\n\n", data); !ok || string(got) != want {
		t.Fatalf("%+v: appender gave %q (ok=%v), want %q", rec, got, ok, want)
	}
}

// TestSessionFrameMatchesJSONMarshal: every kind, the float values on
// both sides of encoding/json's 'f'/'e' cut-offs, and agent IDs that
// need escaping.
func TestSessionFrameMatchesJSONMarshal(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.99e-7, 1e20, 1e21, -1e21, 5e-324,
		math.MaxFloat64, -math.MaxFloat64, 0.001, 0.097, 35, 123456789.125, math.NaN(), math.Inf(1),
	}
	agents := []string{"agent1", "", `q"uote`, `back\slash`, "<>&", "line\u2028sep\u2029", "\xff\xfeinvalid", "tab\tnl\n", "ünï"}
	concs := []int{0, 1, -3, math.MaxInt32, math.MinInt32}
	for _, kind := range feedKinds {
		for i, f := range floats {
			g := floats[(i+3)%len(floats)]
			checkFrame(t, EventRecord{Kind: string(kind), Agent: agents[i%len(agents)], Time: f, Gbps: g, Loss: f, Concurrency: concs[i%len(concs)]})
			checkFrame(t, EventRecord{Kind: string(kind), Agent: agents[i%len(agents)], Time: g, Gbps: f, Concurrency: concs[(i+1)%len(concs)]})
		}
		for _, a := range agents {
			checkFrame(t, EventRecord{Kind: string(kind), Agent: a, Time: 1.5, Loss: 0.25})
		}
	}
}

func FuzzSessionFrame(f *testing.F) {
	f.Add(uint8(2), "agent1", 35.0, 0.097, 0.001, int32(4))
	f.Add(uint8(0), `a"<\`, -1e-7, 1e21, 5e-324, int32(-1))
	f.Fuzz(func(t *testing.T, kind uint8, agent string, tm, gbps, loss float64, conc int32) {
		checkFrame(t, EventRecord{
			Kind: string(feedKinds[int(kind)%len(feedKinds)]), Agent: agent,
			Time: tm, Gbps: gbps, Loss: loss, Concurrency: int(conc),
		})
	})
}

// TestHeavySSEGolden pins every byte of one heavy scenario's stream.
func TestHeavySSEGolden(t *testing.T) {
	_, ts := startService(t)
	_, out := postScenario(t, ts.URL, heavyDoc)
	body := sseBody(t, ts.URL, out["id"])
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != heavySSEGolden {
		t.Fatalf("heavy SSE body (%d bytes) sha256 = %s, want %s", len(body), got, heavySSEGolden)
	}
}

// TestSSEReplayIsChunked: replaying a finished heavy feed encodes at
// most sseChunk bytes (plus the frame that crosses it) per Write, and
// the chunked stream is byte-identical to an unchunked render.
func TestSSEReplayIsChunked(t *testing.T) {
	p := finishedFeed(t, heavyDoc)
	svc := New()
	sc := doneScenario(svc, p)
	w := &frameWriter{}
	serveEvents(svc, sc, w)

	var want []byte
	maxFrame := 0
	for _, r := range p.records {
		n := len(want)
		e := p.raise(r)
		want, _ = appendSessionFrame(want, e, p.names[e.agent])
		maxFrame = max(maxFrame, len(want)-n)
	}
	want = append(want, "event: done\ndata: "+string(sc.snap().body)+"\n\n"...)
	if !bytes.Equal(w.body, want) {
		t.Fatalf("chunked stream (%d bytes) differs from unchunked render (%d bytes)", len(w.body), len(want))
	}
	if w.maxCap > sseChunk+maxFrame {
		t.Fatalf("largest write buffer %d B exceeds the %d B chunk plus one %d B frame", w.maxCap, sseChunk, maxFrame)
	}
	if least := len(want) / (sseChunk + maxFrame); w.writes < least {
		t.Fatalf("%d writes for %d bytes, want at least %d", w.writes, len(want), least)
	}
}

// syntheticEvents is n events over ten agents: a join each, then
// sample/decision/apply triples, three events per instant.
func syntheticEvents(n int) []session.Event {
	evs := make([]session.Event, 0, n)
	kinds := [...]session.Kind{session.Sample, session.Decision, session.Apply}
	for i := 0; len(evs) < n; i++ {
		id := fmt.Sprintf("a%d", i%10)
		e := session.Event{Kind: kinds[i%3], Session: id, Time: float64(i / 3)}
		if i < 10 {
			e.Kind = session.Join
		}
		e.Setting = transfer.Setting{Concurrency: 1 + i%8}
		e.Sample = transfer.Sample{Throughput: float64(i) * 1e6, Loss: 0.001}
		evs = append(evs, e)
	}
	return evs
}

// TestSinkAllocsAmortised: with no follower the sink allocates only on
// slice and table growth — O(log n) times for n events, never per
// event — and wakes nobody.
func TestSinkAllocsAmortised(t *testing.T) {
	evs := syntheticEvents(10_000)
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			p := newProgressTracker()
			sink := p.Sink()
			for _, e := range evs[:n] {
				sink(e)
			}
			if p.wakes != 0 {
				t.Fatalf("%d wakes with no follower", p.wakes)
			}
		})
	}
	small, large := allocs(1_000), allocs(10_000)
	t.Logf("allocs: %v for 1 000 events, %v for 10 000", small, large)
	if large > 100 || large-small > 20 {
		t.Fatalf("sink allocations grow with the event count: %v for 1 000 events, %v for 10 000", small, large)
	}
}

// TestFollowerWakesOncePerInstant: a follower parked before every new
// instant is woken at most once per distinct event time plus once on
// finish, and every batch it reads ends on an instant boundary.
func TestFollowerWakesOncePerInstant(t *testing.T) {
	evs := runEvents(t, lightDoc)
	p := newProgressTracker()
	parked := func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.wake != nil
	}

	batches := make(chan []feedRecord)
	go func() {
		defer close(batches)
		idx := 0
		for {
			recs, _, wait := p.tail(idx)
			if len(recs) > 0 {
				idx += len(recs)
				batches <- recs
				continue
			}
			p.mu.Lock()
			done := p.sealed == len(p.records) && idx == len(evs)
			p.mu.Unlock()
			if done {
				return
			}
			<-wait
		}
	}()
	var got [][]feedRecord
	collected := make(chan struct{})
	go func() {
		for b := range batches {
			got = append(got, b)
		}
		close(collected)
	}()

	sink := p.Sink()
	distinct := 0
	for i, e := range evs {
		if i == 0 || e.Time != evs[i-1].Time {
			distinct++
			deadline := time.Now().Add(10 * time.Second)
			for !parked() {
				if time.Now().After(deadline) {
					t.Fatal("follower never parked")
				}
				runtime.Gosched()
			}
		}
		sink(e)
	}
	p.finish()
	<-collected

	if p.wakes == 0 || p.wakes > distinct+1 {
		t.Fatalf("%d wakes for %d distinct event times", p.wakes, distinct)
	}
	var all []feedRecord
	for _, b := range got {
		all = append(all, b...)
		if n := len(all); n < len(p.records) && p.records[n-1].time == p.records[n].time {
			t.Fatalf("a batch ends inside the instant t=%v", p.records[n].time)
		}
	}
	if len(all) != len(p.records) {
		t.Fatalf("follower read %d records, feed has %d", len(all), len(p.records))
	}
	for i := range all {
		if all[i] != p.records[i] {
			t.Fatalf("record %d: follower read %+v, feed has %+v", i, all[i], p.records[i])
		}
	}
}

// TestMidRunFollowerMatchesReplay: a follower that attaches halfway
// through a run, then parks and follows the live feed, receives exactly
// the bytes a client replaying the finished scenario does.
func TestMidRunFollowerMatchesReplay(t *testing.T) {
	evs := runEvents(t, lightDoc)
	svc := NewWithLimit(1)
	attached := make(chan struct{})
	svc.runFn = func(sc *Scenario) {
		sink := sc.progress.Sink()
		for i, e := range evs {
			if i == len(evs)/2 {
				<-attached
			}
			sink(e)
		}
		markDone(sc)
	}
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		svc.Close()
	}()
	_, out := postScenario(t, ts.URL, lightDoc)

	live := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/api/scenarios/" + out["id"] + "/events")
		if err != nil {
			live <- nil
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		live <- body
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.met.sseClients.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("SSE client never attached")
		}
		time.Sleep(time.Millisecond)
	}
	close(attached)
	followed := <-live
	replayed := sseBody(t, ts.URL, out["id"])
	if n := strings.Count(string(replayed), "event: session\n"); n != len(evs) {
		t.Fatalf("replay carried %d session events, run emitted %d", n, len(evs))
	}
	if !bytes.Equal(followed, replayed) {
		t.Fatalf("mid-run follower got %d bytes, replay %d; streams differ", len(followed), len(replayed))
	}
}

// TestFinishBetweenTailAndCheckKeepsLastInstant: a run that finishes
// its feed and publishes a terminal state just after a follower has
// drained the sealed prefix — while the last instant is still unsealed
// — must not end that follower's stream before the last instant. The
// follower's body equals the replay of the finished scenario.
func TestFinishBetweenTailAndCheckKeepsLastInstant(t *testing.T) {
	evs := runEvents(t, lightDoc)
	p := newProgressTracker()
	sink := p.Sink()
	for _, e := range evs {
		sink(e)
	}
	if p.sealed == len(p.records) {
		t.Fatal("the last instant is already sealed; the test needs it open")
	}
	svc := NewWithLimit(1)
	sc := &Scenario{ID: "s0001", progress: p, done: make(chan struct{})}
	sc.publish(scenarioState{Status: "running"})
	svc.mu.Lock()
	svc.insertLocked(sc)
	svc.mu.Unlock()
	finished := false
	svc.parked = func(sc *Scenario) {
		if !finished {
			finished = true
			markDone(sc)
		}
	}

	var followed, replayed frameWriter
	serveEvents(svc, sc, &followed)
	serveEvents(svc, sc, &replayed)
	if !finished {
		t.Fatal("the follower never parked")
	}
	if n := strings.Count(string(followed.body), "event: session\n"); n != len(evs) {
		t.Fatalf("follower got %d session events, run emitted %d", n, len(evs))
	}
	if !bytes.Equal(followed.body, replayed.body) {
		t.Fatalf("follower got %d bytes, replay %d; streams differ", len(followed.body), len(replayed.body))
	}
}

// BenchmarkProgressSink: one heavy run with and without the tracker
// attached; the difference is the feed's cost on the simulation path.
func BenchmarkProgressSink(b *testing.B) {
	for _, tracked := range []bool{false, true} {
		name := "nosink"
		if tracked {
			name = "tracker"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				run := buildRun(b, heavyDoc)
				var opts scenario.ExecOptions
				if tracked {
					opts.Events = newProgressTracker().Sink()
				}
				b.StartTimer()
				if _, err := run.Execute(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSSEReplay streams a finished 34k-record heavy feed through
// handleEvents into a discarding writer, as a cache hit's follower does.
func BenchmarkSSEReplay(b *testing.B) {
	p := finishedFeed(b, heavyDoc)
	svc := New()
	sc := doneScenario(svc, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveEvents(svc, sc, &frameWriter{discard: true})
	}
}
