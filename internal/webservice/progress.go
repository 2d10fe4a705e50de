package webservice

import (
	"encoding/json"
	"net/http"
	"slices"
	"sync"

	"repro/internal/session"
)

// AgentProgress is the live state of one session inside a running
// scenario, maintained from the scheduler's event stream.
type AgentProgress struct {
	ID          string  `json:"id"`
	Joined      bool    `json:"joined"`
	Finished    bool    `json:"finished"`
	Epochs      int     `json:"epochs"`
	LastGbps    float64 `json:"last_gbps"`
	LastLoss    float64 `json:"last_loss"`
	Concurrency int     `json:"concurrency"`
}

// Progress is the GET /api/scenarios/{id}/progress payload.
type Progress struct {
	Status string `json:"status"`
	// Cached reports that the scenario was answered from the
	// content-addressed result cache: the agent view below is the
	// final state of the original run, not a live stream.
	Cached bool `json:"cached"`
	// Coalesced reports that the scenario attached to another
	// request's in-flight simulation; the agent view is that shared
	// run's live stream.
	Coalesced bool            `json:"coalesced,omitempty"`
	SimTime   float64         `json:"sim_time"`
	Agents    []AgentProgress `json:"agents"`
}

// EventRecord is one entry of a scenario's event feed — the session
// event stream re-expressed as a JSON-serialisable record. The polled
// progress view is a pure fold over the record sequence (apply), and
// the SSE endpoint streams the records themselves, so the two
// endpoints agree event for event by construction.
type EventRecord struct {
	Kind  string  `json:"kind"`
	Agent string  `json:"agent"`
	Time  float64 `json:"time"`
	// Gbps and Loss carry the observation for sample records.
	Gbps float64 `json:"gbps,omitempty"`
	Loss float64 `json:"loss,omitempty"`
	// Concurrency carries the setting for join/decision/apply records.
	Concurrency int `json:"concurrency,omitempty"`
}

// recordOf lowers a session event onto its feed record.
func recordOf(e session.Event) EventRecord {
	rec := EventRecord{Kind: string(e.Kind), Agent: e.Session, Time: e.Time}
	switch e.Kind {
	case session.Join, session.Decision, session.Apply:
		rec.Concurrency = e.Setting.Concurrency
	case session.Sample:
		rec.Gbps = round3(e.Sample.Throughput / 1e9)
		rec.Loss = round3(e.Sample.Loss)
	}
	return rec
}

// feedKinds are the session event kinds a feedRecord's kind indexes.
var feedKinds = [...]session.Kind{session.Join, session.Leave, session.Sample, session.Decision, session.Apply, session.Finish, session.Error}

// feedRecord is the retained, pointer-free form of one EventRecord (40
// bytes; the GC never scans a feed). agent indexes the tracker's agent
// table; kind indexes feedKinds, the whole (closed) session taxonomy.
type feedRecord struct {
	time, gbps, loss   float64
	concurrency, agent int32
	kind               uint8
}

// progressTracker is a session event consumer that retains the event
// feed and folds it into a queryable per-agent view — the live
// counterpart of the Timeline sink, for scenarios still in flight. The
// simulation goroutine only appends; SSE followers read the sealed
// prefix of the append-only feed and encode it on their own goroutine.
type progressTracker struct {
	mu      sync.Mutex
	simTime float64
	// agents is the fold's view in join order, names each agent's ID
	// JSON-encoded once on first sight, byID an ID's index in both.
	agents  []AgentProgress
	names   [][]byte
	byID    map[string]int32
	records []feedRecord
	// sealed counts the records before the latest instant (all once
	// finished); followers read only this prefix, one instant per batch.
	sealed int
	// wake is non-nil while a follower is parked; seal closes it (wakes).
	wake  chan struct{}
	wakes int
}

func newProgressTracker() *progressTracker {
	return &progressTracker{byID: make(map[string]int32)}
}

// Sink returns the event consumer to install on the scheduler.
func (p *progressTracker) Sink() session.Sink {
	return func(e session.Event) {
		rec := recordOf(e)
		p.mu.Lock()
		r := p.lower(rec)
		if n := len(p.records); n > 0 && p.records[n-1].time != r.time {
			p.seal(n)
		}
		p.records = append(p.records, r)
		p.apply(r)
		p.mu.Unlock()
	}
}

// lower interns rec's agent and returns its retained form.
func (p *progressTracker) lower(rec EventRecord) feedRecord {
	i, ok := p.byID[rec.Agent]
	if !ok {
		i = int32(len(p.agents))
		p.byID[rec.Agent] = i
		p.agents = append(p.agents, AgentProgress{ID: rec.Agent})
		name, _ := json.Marshal(rec.Agent) // a string always encodes
		p.names = append(p.names, name)
	}
	return feedRecord{time: rec.Time, gbps: rec.Gbps, loss: rec.Loss, concurrency: int32(rec.Concurrency),
		agent: i, kind: uint8(slices.Index(feedKinds[:], session.Kind(rec.Kind)))}
}

// apply folds one record into the per-agent view. Every consumer of
// the feed — the polled snapshot and any client replaying the SSE
// stream — sees the same fold, so the views cannot drift.
func (p *progressTracker) apply(rec feedRecord) {
	a := &p.agents[rec.agent]
	if rec.time > p.simTime {
		p.simTime = rec.time
	}
	switch feedKinds[rec.kind] {
	case session.Join:
		a.Joined = true
		a.Concurrency = int(rec.concurrency)
	case session.Sample:
		a.Epochs++
		a.LastGbps = rec.gbps
		a.LastLoss = rec.loss
	case session.Decision:
		a.Concurrency = int(rec.concurrency)
	case session.Finish, session.Leave:
		a.Finished = true
	}
}

// foldRecords replays a record sequence through a fresh fold — the
// reference implementation the SSE transparency test holds the polled
// snapshot to.
func foldRecords(recs []EventRecord) (float64, []AgentProgress) {
	t := newProgressTracker()
	for _, r := range recs {
		t.apply(t.lower(r))
	}
	return t.snapshot()
}

// finish seals the whole feed and returns its length.
func (p *progressTracker) finish() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seal(len(p.records))
	return len(p.records)
}

// seal advances the sealed prefix to n and wakes a parked follower:
// once per distinct event time (times never decrease) and on finish.
func (p *progressTracker) seal(n int) {
	p.sealed = n
	if p.wake != nil {
		close(p.wake)
		p.wake = nil
		p.wakes++
	}
}

// tail returns the sealed records from index from onward and the name
// table they index: views of append-only slices, read without the lock.
// When nothing past from is sealed it returns a channel to park on.
func (p *progressTracker) tail(from int) (recs []feedRecord, names [][]byte, wait <-chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sealed > from {
		return p.records[from:p.sealed:p.sealed], p.names, nil
	}
	if p.wake == nil {
		p.wake = make(chan struct{})
	}
	return nil, nil, p.wake
}

// snapshot returns the agents in join order.
func (p *progressTracker) snapshot() (float64, []AgentProgress) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.simTime, append(make([]AgentProgress, 0, len(p.agents)), p.agents...)
}

// handleProgress serves the live view of a scenario: its status plus
// per-agent epoch counts and last-sample metrics, available while the
// run is still in progress (unlike results and charts). The state read
// is a lock-free snapshot load; only the tracker fold takes its own
// (per-scenario) lock.
func (s *Service) handleProgress(w http.ResponseWriter, r *http.Request) {
	sc := s.lookup(r.PathValue("id"))
	if sc == nil {
		http.NotFound(w, r)
		return
	}
	st := sc.snap()
	var simTime float64
	var agents []AgentProgress
	if sc.progress != nil {
		simTime, agents = sc.progress.snapshot()
	}
	writeJSON(w, http.StatusOK, Progress{
		Status: st.Status, Cached: st.Cached, Coalesced: st.Coalesced,
		SimTime: simTime, Agents: agents,
	})
}
