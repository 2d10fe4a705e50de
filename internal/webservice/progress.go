package webservice

import (
	"encoding/json"
	"math"
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

// feedKinds are the session event kinds a feed entry's kind indexes.
var feedKinds = [...]session.Kind{session.Join, session.Leave, session.Sample, session.Decision, session.Apply, session.Finish, session.Error}

// feedEntry is one EventRecord with its agent interned: what the fold
// applies and a frame encodes. agent indexes the tracker's agent table;
// kind indexes feedKinds, the whole (closed) session taxonomy.
type feedEntry struct {
	time, gbps, loss float64
	concurrency      int
	agent            int32
	kind             uint8
}

// feedRecord is the retained, pointer-free form of one feedEntry (24
// bytes; the GC never scans a feed). v and aux carry the kind's
// payload: a sample keeps gbps in v and its loss in thousandths in aux;
// a join, decision or apply keeps its concurrency in aux. An entry that
// does not fit its kind's shape — a payload field its kind does not
// carry, a loss whose thousandths do not round-trip bitwise, an agent
// past 65 535 — is kept whole in the spill table; its record has the
// spilled bit set in kind and the table index in aux. The simulator
// never produces one: its losses are round3 values and each kind fills
// only its own fields (recordOf).
type feedRecord struct {
	time  float64
	v     float64
	aux   int32
	agent uint16
	kind  uint8
}

// spilled marks a feedRecord whose entry lives in the spill table.
const spilled = 0x80

// feedTables are the append-only tables a feed's records index: each
// agent's JSON-encoded ID, by agent index, and the spilled entries.
type feedTables struct {
	names  [][]byte
	spills []feedEntry
}

// raise returns the entry r was packed from.
func (t *feedTables) raise(r feedRecord) feedEntry {
	if r.kind&spilled != 0 {
		return t.spills[r.aux]
	}
	e := feedEntry{time: r.time, agent: int32(r.agent), kind: r.kind}
	switch feedKinds[r.kind] {
	case session.Sample:
		e.gbps, e.loss = r.v, float64(r.aux)/1000
	case session.Join, session.Decision, session.Apply:
		e.concurrency = int(r.aux)
	}
	return e
}

// pack returns e's retained form, spilling e whole when it does not fit
// its kind's shape.
func (t *feedTables) pack(e feedEntry) feedRecord {
	r := feedRecord{time: e.time, agent: uint16(e.agent), kind: e.kind}
	fits := e.agent <= math.MaxUint16
	switch feedKinds[e.kind] {
	case session.Sample:
		k := math.Round(e.loss * 1000)
		fits = fits && e.concurrency == 0 && k >= math.MinInt32 && k <= math.MaxInt32 &&
			math.Float64bits(float64(int32(k))/1000) == math.Float64bits(e.loss)
		r.v = e.gbps
		if fits {
			r.aux = int32(k)
		}
	case session.Join, session.Decision, session.Apply:
		fits = fits && math.Float64bits(e.gbps)|math.Float64bits(e.loss) == 0 && e.concurrency == int(int32(e.concurrency))
		r.aux = int32(e.concurrency)
	default:
		fits = fits && math.Float64bits(e.gbps)|math.Float64bits(e.loss) == 0 && e.concurrency == 0
	}
	if fits {
		return r
	}
	t.spills = append(t.spills, e)
	return feedRecord{time: e.time, aux: int32(len(t.spills) - 1), kind: e.kind | spilled}
}

// progressTracker is a session event consumer that retains the event
// feed and folds it into a queryable per-agent view — the live
// counterpart of the Timeline sink, for scenarios still in flight. The
// simulation goroutine only appends; SSE followers read the sealed
// prefix of the append-only feed and encode it on their own goroutine.
type progressTracker struct {
	mu      sync.Mutex
	simTime float64
	// agents is the fold's view in join order, the tables' names each
	// agent's ID JSON-encoded once on first sight, byID an ID's index in
	// both.
	agents []AgentProgress
	feedTables
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
		ent := p.lower(rec)
		if n := len(p.records); n > 0 && p.records[n-1].time != ent.time {
			p.seal(n)
		}
		p.records = append(p.records, p.pack(ent))
		p.apply(ent)
		p.mu.Unlock()
	}
}

// lower interns rec's agent and returns its entry.
func (p *progressTracker) lower(rec EventRecord) feedEntry {
	i, ok := p.byID[rec.Agent]
	if !ok {
		i = int32(len(p.agents))
		p.byID[rec.Agent] = i
		p.agents = append(p.agents, AgentProgress{ID: rec.Agent})
		name, _ := json.Marshal(rec.Agent) // a string always encodes
		p.names = append(p.names, name)
	}
	return feedEntry{time: rec.Time, gbps: rec.Gbps, loss: rec.Loss, concurrency: rec.Concurrency,
		agent: i, kind: uint8(slices.Index(feedKinds[:], session.Kind(rec.Kind)))}
}

// apply folds one entry into the per-agent view. Every consumer of
// the feed — the polled snapshot and any client replaying the SSE
// stream — sees the same fold, so the views cannot drift.
func (p *progressTracker) apply(rec feedEntry) {
	a := &p.agents[rec.agent]
	if rec.time > p.simTime {
		p.simTime = rec.time
	}
	switch feedKinds[rec.kind] {
	case session.Join:
		a.Joined = true
		a.Concurrency = rec.concurrency
	case session.Sample:
		a.Epochs++
		a.LastGbps = rec.gbps
		a.LastLoss = rec.loss
	case session.Decision:
		a.Concurrency = rec.concurrency
	case session.Finish, session.Leave:
		a.Finished = true
	}
}

// finish seals the whole feed, replaces it with an exact-length copy
// — a finished feed is retained for as long as its scenario, so the
// slack of append's doubling would be too — and returns its length.
// Followers keep valid views of the old array: the sealed prefix they
// read never changes.
func (p *progressTracker) finish() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seal(len(p.records))
	exact := make([]feedRecord, len(p.records))
	copy(exact, p.records)
	p.records = exact
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

// tail returns the sealed records from index from onward and the
// tables they index: views of append-only slices, read without the
// lock. When nothing past from is sealed it returns a channel to park
// on.
func (p *progressTracker) tail(from int) (recs []feedRecord, tabs feedTables, wait <-chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sealed > from {
		return p.records[from:p.sealed:p.sealed], p.feedTables, nil
	}
	if p.wake == nil {
		p.wake = make(chan struct{})
	}
	return nil, feedTables{}, p.wake
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
