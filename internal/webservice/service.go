// Package webservice implements the paper's §6 future work: a web
// service for deploying Falcon without local installation. Clients
// POST a scenario — either the legacy flat form (testbed, algorithm,
// number of competing agents) or a full declarative scenario document
// (see internal/scenario) with topology and a mutation schedule — and
// read JSON results, live progress (polled or streamed over SSE), and
// SVG timelines while the scenario runs in the background.
//
// The serving path is built for production load in front of the
// allocation-free simulator:
//
//   - Scenario state is published as immutable snapshots through an
//     atomic pointer. The JSON body is rendered once per state
//     transition and served many times with zero marshaling; no lock
//     is held while writing to sockets.
//   - Concurrent submissions with the same content-addressed cache key
//     coalesce onto a single in-flight simulation (single-flight): one
//     leader runs, every waiter observes the identical published
//     result, and completed results land in the LRU cache for later
//     identical submissions.
//   - GET /metrics exposes Prometheus-text counters, gauges, and a
//     latency histogram with no client-library dependency.
//   - The store is bounded: past the cap, the oldest completed
//     scenarios are evicted (queued/running stay pinned).
//   - BeginDrain stops new submissions and closes SSE streams so the
//     process can shut down cleanly once running scenarios finish.
//
// The service runs scenarios on the simulated testbeds; the same API
// shape would front real transfers by swapping the scenario runner.
package webservice

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// Service-level bounds on POSTed scenario documents, looser than the
// legacy flat-request bounds but still protecting the worker pool.
const (
	maxDocAgents   = 512
	maxDocDuration = 3600.0
)

// DefaultStoreCap bounds the number of scenarios retained in the store
// when no explicit cap is configured. Past the cap the oldest
// completed scenarios are evicted; queued and running scenarios are
// never evicted.
const DefaultStoreCap = 4096

// ScenarioRequest is the POST /api/scenarios payload. Either the flat
// legacy fields or Scenario may be used, not both; internally the flat
// form is lowered onto a scenario document, so both shapes run (and
// cache) through the same path.
type ScenarioRequest struct {
	// Testbed names the environment: emulab, emulab-1g, xsede, hpclab,
	// campus, wan, fleet.
	Testbed string `json:"testbed,omitempty"`
	// Algorithm is one of gd, bo, hc.
	Algorithm string `json:"algorithm,omitempty"`
	// Agents is the number of competing Falcon transfers (≥1).
	Agents int `json:"agents,omitempty"`
	// StaggerSeconds separates agent joins. Default 120 when Agents>1.
	StaggerSeconds float64 `json:"stagger_seconds,omitempty"`
	// DurationSeconds is the simulated horizon. Default 300.
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	// Seed makes runs reproducible. Default 1.
	Seed int64 `json:"seed,omitempty"`
	// MaxConcurrency bounds the search space. Default 64.
	MaxConcurrency int `json:"max_concurrency,omitempty"`
	// Scenario is a full declarative scenario document (the
	// internal/scenario JSON schema), mutually exclusive with the flat
	// fields above.
	Scenario json.RawMessage `json:"scenario,omitempty"`

	// doc is the normalised document every accepted request lowers to.
	doc *scenario.Document
}

// normalise applies defaults, validates, and lowers the request onto a
// scenario document (stored in r.doc).
func (r *ScenarioRequest) normalise() error {
	if len(r.Scenario) > 0 {
		if r.Testbed != "" || r.Algorithm != "" || r.Agents != 0 || r.StaggerSeconds != 0 ||
			r.DurationSeconds != 0 || r.Seed != 0 || r.MaxConcurrency != 0 {
			return fmt.Errorf("scenario document and flat fields are mutually exclusive")
		}
		doc, err := scenario.Parse(r.Scenario)
		if err != nil {
			return err
		}
		if n := doc.Sessions(); n > maxDocAgents {
			return fmt.Errorf("scenario has %d agents; service accepts at most %d", n, maxDocAgents)
		}
		if doc.DurationSeconds > maxDocDuration {
			return fmt.Errorf("scenario duration %gs exceeds the service cap %gs", doc.DurationSeconds, maxDocDuration)
		}
		r.doc = doc
		return nil
	}
	if r.Agents == 0 {
		r.Agents = 1
	}
	if r.Agents < 1 || r.Agents > 8 {
		return fmt.Errorf("agents %d outside [1,8]", r.Agents)
	}
	if r.StaggerSeconds == 0 {
		r.StaggerSeconds = 120
	}
	if r.StaggerSeconds < 0 {
		return fmt.Errorf("negative stagger")
	}
	if r.DurationSeconds == 0 {
		r.DurationSeconds = 300
	}
	if r.DurationSeconds < 30 || r.DurationSeconds > 3600 {
		return fmt.Errorf("duration %v outside [30,3600]", r.DurationSeconds)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.MaxConcurrency == 0 {
		r.MaxConcurrency = 64
	}
	if r.MaxConcurrency < 2 || r.MaxConcurrency > 200 {
		return fmt.Errorf("max_concurrency %d outside [2,200]", r.MaxConcurrency)
	}
	switch r.Algorithm {
	case core.AlgoGradient, core.AlgoBayesian, core.AlgoHillClimbing:
	case "":
		r.Algorithm = core.AlgoGradient
	default:
		return fmt.Errorf("unknown algorithm %q", r.Algorithm)
	}
	if _, ok := scenario.PresetConfig(r.Testbed); !ok {
		return fmt.Errorf("unknown testbed %q", r.Testbed)
	}
	// The same lowering as falconsim's flags, so a flat request and
	// its falconsim flag set are one run.
	doc, err := scenario.Flat(r.Testbed, r.Algorithm, r.Agents, r.StaggerSeconds, r.DurationSeconds, r.Seed, r.MaxConcurrency)
	if err != nil {
		return err
	}
	r.doc = doc
	return nil
}

// AgentResult summarises one agent's outcome.
type AgentResult struct {
	ID              string  `json:"id"`
	MeanGbps        float64 `json:"mean_gbps"`
	MeanConcurrency float64 `json:"mean_concurrency"`
}

// scenarioState is one immutable published state of a scenario. A
// state is never mutated after publish: transitions copy the current
// state, adjust it, render the JSON body once, and atomically swap the
// pointer. Readers load the pointer and serve the pre-rendered body
// with no lock and no marshaling.
type scenarioState struct {
	Status    string
	Err       string
	Results   []AgentResult
	JainIndex float64
	Cached    bool
	Coalesced bool

	timeline *testbed.Timeline
	// body is the rendered JSON of the scenario's API view.
	body []byte
}

func (st *scenarioState) terminal() bool { return st.Status == "done" || st.Status == "failed" }

// scenarioView is the JSON shape of one scenario in the API.
type scenarioView struct {
	ID        string           `json:"id"`
	Request   *ScenarioRequest `json:"request"`
	Status    string           `json:"status"`
	Error     string           `json:"error,omitempty"`
	Results   []AgentResult    `json:"results,omitempty"`
	JainIndex float64          `json:"jain_index,omitempty"`
	// Cached marks results served from the content-addressed cache:
	// an identical earlier request already ran this exact simulation,
	// so the stored outcome was reused without re-running it.
	Cached bool `json:"cached,omitempty"`
	// Coalesced marks results obtained by attaching to another
	// request's identical in-flight simulation (single-flight): the
	// simulation ran exactly once and every attached request observed
	// the same published result.
	Coalesced bool `json:"coalesced,omitempty"`
}

// Scenario is the stored state of one submitted run. The identity
// fields (ID, Request, progress) are immutable after creation; the
// mutable run state lives behind the atomic snapshot pointer.
type Scenario struct {
	ID string
	// seq is the creation sequence number; the listing is ordered by it.
	seq int
	// key is the content-addressed cache key of the normalised request.
	key     string
	Request ScenarioRequest

	// progress retains the run's event feed (shared with coalesced
	// waiters and cache hits, which observe the original run's feed).
	progress *progressTracker

	state atomic.Pointer[scenarioState]
	// done is closed on the first terminal publish.
	done     chan struct{}
	doneOnce sync.Once
}

// snap returns the current immutable state.
func (sc *Scenario) snap() *scenarioState { return sc.state.Load() }

// publish renders the JSON body for st and atomically installs it as
// the scenario's current state.
func (sc *Scenario) publish(st scenarioState) {
	body, err := json.Marshal(scenarioView{
		ID: sc.ID, Request: &sc.Request, Status: st.Status, Error: st.Err,
		Results: st.Results, JainIndex: st.JainIndex, Cached: st.Cached, Coalesced: st.Coalesced,
	})
	if err != nil {
		// The view contains only marshalable fields; this is unreachable
		// but kept observable rather than silent.
		body = []byte(fmt.Sprintf(`{"id":%q,"status":"failed","error":"render: %v"}`, sc.ID, err))
		st.Status = "failed"
	}
	st.body = body
	sc.state.Store(&st)
	if st.terminal() {
		sc.doneOnce.Do(func() { close(sc.done) })
	}
}

// flight is one in-flight simulation that identical concurrent
// submissions attach to. The leader runs; waiters are resolved from
// the leader's final state when it completes.
type flight struct {
	leader  *Scenario
	waiters []*Scenario
}

// Options configures a Service.
type Options struct {
	// Workers bounds concurrent simulations (default GOMAXPROCS).
	Workers int
	// StoreCap bounds retained scenarios (default DefaultStoreCap).
	StoreCap int
	// CacheSize bounds the content-addressed result cache (default 64).
	CacheSize int
}

// Service is the HTTP handler set with its scenario store.
type Service struct {
	// mu guards the creation path: id sequence, order slice, in-flight
	// map, and result cache. The read path (get/list/progress/charts/
	// SSE/metrics) does not take it except for the brief order copy in
	// list and metrics.
	mu       sync.Mutex
	next     int
	order    []*Scenario
	inflight map[string]*flight
	cache    *resultCache
	storeCap int

	// store is the id → *Scenario index; reads are lock-free.
	store sync.Map

	// wg tracks background runs so Close can drain them.
	wg sync.WaitGroup
	// sem bounds the number of scenarios simulating at once; accepted
	// scenarios beyond the limit wait in "queued" until a slot frees.
	sem chan struct{}
	// runFn executes one admitted scenario (swapped out by tests).
	runFn func(*Scenario)
	// parked runs when an SSE stream has drained the feed (tests only).
	parked func(*Scenario)

	met metricsRegistry

	// draining is closed by BeginDrain: new submissions are refused
	// and SSE streams close.
	draining  chan struct{}
	drainOnce sync.Once
}

// NewWithOptions returns an empty service configured by opts; zero
// fields take their defaults.
func NewWithOptions(opts Options) *Service {
	if opts.Workers < 1 {
		opts.Workers = runtime.GOMAXPROCS(0)
		if opts.Workers < 1 {
			opts.Workers = 1
		}
	}
	if opts.StoreCap < 1 {
		opts.StoreCap = DefaultStoreCap
	}
	if opts.CacheSize < 1 {
		opts.CacheSize = defaultCacheSize
	}
	s := &Service{
		inflight: make(map[string]*flight),
		cache:    newResultCache(opts.CacheSize),
		storeCap: opts.StoreCap,
		sem:      make(chan struct{}, opts.Workers),
		draining: make(chan struct{}),
	}
	s.met.workerLimit = int64(opts.Workers)
	s.runFn = s.run
	return s
}

// Close waits for in-flight scenario runs to finish.
func (s *Service) Close() { s.wg.Wait() }

// BeginDrain moves the service into drain mode: new scenario
// submissions are refused with 503 and open SSE streams are closed
// with a shutdown event. Already-accepted scenarios keep running;
// Close still waits for them. Safe to call more than once.
func (s *Service) BeginDrain() {
	s.drainOnce.Do(func() { close(s.draining) })
}

// Draining reports whether BeginDrain has been called.
func (s *Service) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Handler returns the service's HTTP routes, each instrumented with
// request counting and latency observation under its route pattern.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range []struct {
		pattern string
		h       http.HandlerFunc
	}{
		{"GET /", s.handleIndex},
		{"GET /metrics", s.handleMetrics},
		{"POST /api/scenarios", s.handleCreate},
		{"GET /api/scenarios", s.handleList},
		{"GET /api/scenarios/{id}", s.handleGet},
		{"GET /api/scenarios/{id}/progress", s.handleProgress},
		{"GET /api/scenarios/{id}/events", s.handleEvents},
		{"GET /api/scenarios/{id}/throughput.svg", s.chartHandler("throughput")},
		{"GET /api/scenarios/{id}/concurrency.svg", s.chartHandler("concurrency")},
	} {
		mux.HandleFunc(rt.pattern, s.instrument(rt.pattern, rt.h))
	}
	return mux
}

func (s *Service) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<!doctype html><title>Falcon service</title>
<h1>Falcon transfer-optimization service</h1>
<p>POST JSON to <code>/api/scenarios</code>, e.g.
<pre>{"testbed":"hpclab","algorithm":"gd","agents":3}</pre>
then GET <code>/api/scenarios/{id}</code> for results,
<code>/api/scenarios/{id}/progress</code> for live per-agent status while
it runs, <code>/api/scenarios/{id}/events</code> for the same feed as a
server-sent-event stream, <code>/api/scenarios/{id}/throughput.svg</code>
for the timeline, and <code>/metrics</code> for Prometheus-text service
metrics (request rates, latency, cache and coalesce hit counts).</p>`)
}

func (s *Service) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		httpError(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	var req ScenarioRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if err := req.normalise(); err != nil {
		httpError(w, http.StatusBadRequest, "invalid scenario: %v", err)
		return
	}
	key, err := cacheKey(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid scenario: %v", err)
		return
	}

	s.mu.Lock()
	s.next++
	sc := &Scenario{
		ID:      fmt.Sprintf("s%04d", s.next),
		seq:     s.next,
		key:     key,
		Request: req,
		done:    make(chan struct{}),
	}

	if hit, ok := s.cache.get(key); ok {
		// The simulation is a pure function of the normalised request,
		// so the stored outcome is exactly what a re-run would produce.
		s.met.cacheHits.Add(1)
		sc.progress = hit.progress
		sc.publish(scenarioState{
			Status: "done", Cached: true,
			Results: hit.results, JainIndex: hit.jain, timeline: hit.timeline,
		})
		s.insertLocked(sc)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, map[string]string{"id": sc.ID})
		return
	}
	s.met.cacheMisses.Add(1)

	if fl, ok := s.inflight[key]; ok {
		// Single-flight: an identical simulation is already in flight.
		// Attach as a waiter — share the leader's live event feed now,
		// observe its published result on completion. Exactly one
		// simulation runs no matter how many identical requests arrive
		// concurrently.
		s.met.coalesceHits.Add(1)
		sc.progress = fl.leader.progress
		fl.waiters = append(fl.waiters, sc)
		sc.publish(scenarioState{Status: fl.leader.snap().Status, Coalesced: true})
		s.insertLocked(sc)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, map[string]string{"id": sc.ID})
		return
	}

	// Leader: owns the flight and the actual run.
	fl := &flight{leader: sc}
	s.inflight[key] = fl
	sc.progress = newProgressTracker()
	sc.publish(scenarioState{Status: "queued"})
	s.insertLocked(sc)
	s.mu.Unlock()

	s.wg.Add(1)
	go s.execute(sc, fl)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": sc.ID})
}

// execute admits the leader to the worker pool, runs it, resolves the
// flight (cache fill + waiter publication), and maintains the pool
// gauges.
func (s *Service) execute(sc *Scenario, fl *flight) {
	defer s.wg.Done()
	s.met.queueDepth.Add(1)
	s.sem <- struct{}{}
	s.met.queueDepth.Add(-1)
	s.met.workersBusy.Add(1)
	defer func() {
		<-s.sem
		s.met.workersBusy.Add(-1)
	}()

	st := *sc.snap()
	st.Status = "running"
	sc.publish(st)
	// Counted before the run publishes its terminal state, so a client
	// that has seen "done" never scrapes a counter that has not.
	s.met.simulations.Add(1)
	s.runFn(sc)

	final := sc.snap()
	s.mu.Lock()
	delete(s.inflight, sc.key)
	if final.Status == "done" {
		s.cache.put(sc.key, &resultValue{
			results: final.Results, jain: final.JainIndex,
			timeline: final.timeline, progress: sc.progress,
		})
	}
	waiters := fl.waiters
	fl.waiters = nil
	s.mu.Unlock()

	// Resolve waiters outside the lock: each publication is an atomic
	// snapshot swap, and no new waiter can attach once the flight is
	// out of the in-flight map. Waiters share the leader's Results
	// slice and timeline, so all observers see bitwise-identical data.
	for _, w := range waiters {
		w.publish(scenarioState{
			Status: final.Status, Err: final.Err,
			Results: final.Results, JainIndex: final.JainIndex,
			Coalesced: true, timeline: final.timeline,
		})
	}
}

// insertLocked adds sc to the store and the creation-ordered slice,
// then enforces the store cap by evicting the oldest completed
// scenarios. Queued and running scenarios are pinned: if every retained
// scenario is still active the store temporarily exceeds the cap
// rather than dropping live state. Callers hold s.mu.
func (s *Service) insertLocked(sc *Scenario) {
	s.store.Store(sc.ID, sc)
	s.order = append(s.order, sc)
	for len(s.order) > s.storeCap {
		evicted := false
		for i, old := range s.order {
			if old.snap().terminal() {
				s.store.Delete(old.ID)
				s.order = append(s.order[:i], s.order[i+1:]...)
				s.met.evictions.Add(1)
				evicted = true
				break
			}
		}
		if !evicted {
			break
		}
	}
}

// run executes the scenario synchronously and publishes the outcome.
// Every request — flat or document — runs through scenario.Build and
// Run.Execute, so dynamic scenarios with mutation schedules take the
// same path as the legacy flat form.
func (s *Service) run(sc *Scenario) {
	doc := sc.Request.doc
	run, err := doc.Build()
	if err != nil {
		s.fail(sc, err)
		return
	}
	tl, err := run.Execute(scenario.ExecOptions{Events: sc.progress.Sink()})
	if err != nil {
		s.fail(sc, err)
		return
	}

	var results []AgentResult
	var shares []float64
	for _, id := range run.AgentIDs {
		mean := tl.MeanThroughputGbps(id, doc.DurationSeconds/2, doc.DurationSeconds)
		cc := 0.0
		if series := tl.Concurrency.Lookup(id); series != nil {
			cc = series.MeanAfter(doc.DurationSeconds / 2)
		}
		results = append(results, AgentResult{ID: id, MeanGbps: round3(mean), MeanConcurrency: round3(cc)})
		shares = append(shares, mean)
	}
	s.met.feedRecords.Add(uint64(sc.progress.finish()))
	// A finished scenario is retained (store, cache) long after its run:
	// keep only the two sets the charts draw, not the loss series or the
	// recording run's series table.
	sc.publish(scenarioState{
		Status: "done", Results: results,
		JainIndex: round3(stats.JainIndex(shares)),
		timeline:  &testbed.Timeline{Throughput: tl.Throughput, Concurrency: tl.Concurrency},
	})
}

// round3 rounds to three decimals (half away from zero, so negative
// values round symmetrically to positive ones).
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

func (s *Service) fail(sc *Scenario, err error) {
	s.met.feedRecords.Add(uint64(sc.progress.finish()))
	sc.publish(scenarioState{Status: "failed", Err: err.Error()})
}

// handleList writes every retained scenario ordered by ID (creation
// sequence), concatenating the pre-rendered snapshot bodies. The lock
// covers only the order-slice copy; encoding work and socket writes
// happen outside it.
func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	scs := append([]*Scenario(nil), s.order...)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte("["))
	for i, sc := range scs {
		if i > 0 {
			w.Write([]byte(","))
		}
		w.Write(sc.snap().body)
	}
	w.Write([]byte("]\n"))
}

// handleGet serves the scenario's pre-rendered snapshot body: one
// atomic load, zero marshaling, no lock.
func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	sc := s.lookup(r.PathValue("id"))
	if sc == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(sc.snap().body)
	w.Write([]byte("\n"))
}

func (s *Service) chartHandler(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sc := s.lookup(r.PathValue("id"))
		if sc == nil {
			http.NotFound(w, r)
			return
		}
		st := sc.snap()
		if st.timeline == nil {
			httpError(w, http.StatusConflict, "scenario is %s; charts appear when it is done", st.Status)
			return
		}
		// The timeline is immutable once published, so rendering needs
		// no lock.
		w.Header().Set("Content-Type", "image/svg+xml")
		var err error
		switch kind {
		case "throughput":
			err = st.timeline.Throughput.WriteSVG(w, 720, 320, fmt.Sprintf("%s — throughput (Gbps)", sc.ID))
		default:
			err = st.timeline.Concurrency.WriteSVG(w, 720, 320, fmt.Sprintf("%s — concurrency", sc.ID))
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, "render: %v", err)
		}
	}
}

// lookup resolves a scenario ID without taking the service lock.
func (s *Service) lookup(id string) *Scenario {
	if id = strings.TrimSpace(id); id == "" {
		return nil
	}
	v, ok := s.store.Load(id)
	if !ok {
		return nil
	}
	return v.(*Scenario)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
