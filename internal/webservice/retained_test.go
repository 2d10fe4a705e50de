package webservice

import (
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/session"
	"repro/internal/testbed"
)

// runScenario runs a POST body through Service.run, as a worker does,
// and returns the finished scenario.
func runScenario(tb testing.TB, body string) *Scenario {
	tb.Helper()
	var req ScenarioRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		tb.Fatal(err)
	}
	if err := req.normalise(); err != nil {
		tb.Fatal(err)
	}
	sc := &Scenario{ID: "s0001", Request: req, progress: newProgressTracker(), done: make(chan struct{})}
	New().run(sc)
	if st := sc.snap(); st.Status != "done" {
		tb.Fatalf("scenario ended %s: %s", st.Status, st.Err)
	}
	return sc
}

// sameRecord reports whether two records are equal, floats bitwise.
func sameRecord(a, b EventRecord) bool {
	return a.Kind == b.Kind && a.Agent == b.Agent && a.Concurrency == b.Concurrency &&
		math.Float64bits(a.Time) == math.Float64bits(b.Time) &&
		math.Float64bits(a.Gbps) == math.Float64bits(b.Gbps) &&
		math.Float64bits(a.Loss) == math.Float64bits(b.Loss)
}

// TestRetainedScenarioHoldsOnlyWhatItServes: a finished heavy scenario
// keeps an exact-length feed of compact records, each raising back to
// exactly the EventRecord recordOf made of its event, with nothing
// spilled, and a timeline of only the two chart sets.
func TestRetainedScenarioHoldsOnlyWhatItServes(t *testing.T) {
	evs := runEvents(t, heavyDoc)
	sc := runScenario(t, heavyDoc)
	p := sc.progress
	if len(p.records) != len(evs) {
		t.Fatalf("feed retains %d records, the run emitted %d events", len(p.records), len(evs))
	}
	for i, r := range p.records {
		e := p.raise(r)
		got := EventRecord{Kind: string(feedKinds[e.kind]), Agent: p.agents[e.agent].ID, Time: e.time,
			Gbps: e.gbps, Loss: e.loss, Concurrency: e.concurrency}
		if want := recordOf(evs[i]); !sameRecord(got, want) {
			t.Fatalf("record %d raises to %+v, recordOf gave %+v", i, got, want)
		}
	}
	if len(p.spills) != 0 {
		t.Fatalf("%d of the simulator's records spilled", len(p.spills))
	}
	if cap(p.records) != len(p.records) {
		t.Fatalf("finished feed has cap %d for %d records", cap(p.records), len(p.records))
	}
	tl := sc.snap().timeline
	if len(tl.Throughput.Series) == 0 || len(tl.Concurrency.Series) == 0 {
		t.Fatal("retained timeline lost a chart set")
	}
	if len(tl.Loss.Series) != 0 {
		t.Fatalf("retained timeline keeps %d loss series", len(tl.Loss.Series))
	}
	// DeepEqual reads unexported fields too: the recording run's series
	// table and the Finished map must be gone.
	if !reflect.DeepEqual(*tl, testbed.Timeline{Throughput: tl.Throughput, Concurrency: tl.Concurrency}) {
		t.Fatal("retained timeline holds more than the throughput and concurrency sets")
	}
}

// TestPackRaisesBitwise: pack keeps every entry in its kind's shape
// compact and spills every other one whole, and raise returns exactly
// the entry packed, floats bitwise, either way.
func TestPackRaisesBitwise(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 0.001, 0.097, 0.5, 35, 1e-7, 3e6, math.MaxInt32 / 1000.0,
		math.MaxInt32/1000.0 + 1, math.MinInt32 / 1000.0, 0.1 + 0.2, math.NaN(), math.Inf(-1)}
	concs := []int{0, 1, -3, math.MaxInt32, math.MinInt32, math.MaxInt32 + 1}
	agents := []int32{0, 7, math.MaxUint16, math.MaxUint16 + 1}
	var tabs feedTables
	compact, spills := 0, 0
	for kind := range feedKinds {
		for i, f := range floats {
			for j, c := range concs {
				e := feedEntry{time: float64(i), gbps: floats[(i+j)%len(floats)], loss: f, concurrency: c,
					agent: agents[(i+j)%len(agents)], kind: uint8(kind)}
				switch feedKinds[kind] {
				case session.Sample:
					e.concurrency = 0
				case session.Join, session.Decision, session.Apply:
					e.gbps, e.loss = 0, 0
				default:
					e.gbps, e.loss, e.concurrency = 0, 0, 0
				}
				for _, e := range []feedEntry{e, {time: e.time, gbps: f, loss: f, concurrency: c, agent: e.agent, kind: e.kind}} {
					n := len(tabs.spills)
					got := tabs.raise(tabs.pack(e))
					if math.Float64bits(got.time) != math.Float64bits(e.time) || math.Float64bits(got.gbps) != math.Float64bits(e.gbps) ||
						math.Float64bits(got.loss) != math.Float64bits(e.loss) || got.concurrency != e.concurrency ||
						got.agent != e.agent || got.kind != e.kind {
						t.Fatalf("%+v raises back as %+v", e, got)
					}
					if len(tabs.spills) > n {
						spills++
					} else {
						compact++
					}
				}
			}
		}
	}
	// A round3 sample of the simulator's shape stays compact.
	n := len(tabs.spills)
	sample := uint8(slices.Index(feedKinds[:], session.Sample))
	tabs.pack(feedEntry{time: 35, gbps: round3(0.0971234), loss: round3(0.0123456), agent: 59, kind: sample})
	if len(tabs.spills) != n {
		t.Fatal("a simulator-shaped sample spilled")
	}
	if compact == 0 || spills == 0 {
		t.Fatalf("%d compact and %d spilled entries: the cases miss a side", compact, spills)
	}
}

// TestSpilledRecordsStream: samples whose loss does not fit a compact
// record — a negative zero, thousandths past int32 — stream the same
// bytes json.Marshal gives their EventRecords, beside compact ones.
func TestSpilledRecordsStream(t *testing.T) {
	p := newProgressTracker()
	sink := p.Sink()
	var want []byte
	for i, loss := range []float64{0.0123, math.Copysign(0, -1), 5e9, 0.0005, -2.5e6} {
		e := session.Event{Kind: session.Sample, Session: "a1", Time: float64(i)}
		e.Sample.Throughput, e.Sample.Loss = 1e8*float64(i), loss
		sink(e)
		data, err := json.Marshal(recordOf(e))
		if err != nil {
			t.Fatal(err)
		}
		want = appendSSE(want, "session", data)
	}
	p.finish()
	if len(p.spills) != 3 {
		t.Fatalf("%d records spilled, want 3", len(p.spills))
	}
	svc := New()
	sc := doneScenario(svc, p)
	w := &frameWriter{}
	serveEvents(svc, sc, w)
	want = appendSSE(want, "done", sc.snap().body)
	if string(w.body) != string(want) {
		t.Fatalf("stream\n%s\nwant\n%s", w.body, want)
	}
}

// TestRetainedScenarioFootprint bounds the live heap one finished heavy
// scenario holds once its run is over: the feed's exact-length 24-byte
// records, the agent table and the throughput and concurrency series.
// The bound is the measured 1 611 448 B plus ≈10 %. 40-byte records and
// a doubling feed with the whole timeline held 2 467 720 B; keeping the
// whole timeline alone holds 1 812 000 B. (The feed's doubling slack
// alone stays under the bound; TestRetainedScenarioHoldsOnlyWhatItServes
// checks the exact length.)
func TestRetainedScenarioFootprint(t *testing.T) {
	const retainedFootprint = 1_760_000
	runScenario(t, heavyDoc) // fill package-level caches and free lists first
	retain := func() (*progressTracker, *testbed.Timeline) {
		sc := runScenario(t, heavyDoc)
		return sc.progress, sc.snap().timeline
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, tl := retain()
	runtime.GC()
	runtime.ReadMemStats(&after)
	got := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("retained: %d bytes (%d records)", got, len(p.records))
	if got > retainedFootprint {
		t.Errorf("a finished heavy scenario's feed and timeline hold %d bytes, over the %d-byte bound", got, retainedFootprint)
	}
	runtime.KeepAlive(p)
	runtime.KeepAlive(tl)
}
