package core

import (
	"math"

	"repro/internal/bayesopt"
	"repro/internal/fastrand"
	"repro/internal/optimizer"
	"repro/internal/utility"
)

// DecisionMemo caches (searcher state, observation) → (proposal,
// successor state) for snapshot-able searchers (hill climbing, gradient
// descent). Staggered fleets contain many sessions running the same
// algorithm under the same bounds; once measurement noise is off, those
// sessions observe identical sample sequences and their searchers walk
// identical state trajectories — the session-level analogue of the
// netsim flow classes, where one representative's work answers for the
// whole equivalence class.
//
// The memo is transparent by construction: the key embeds the
// searcher's complete decision state (optimizer.Snapshot) plus the
// exact observation, and a hit restores the stored successor state, so
// a memoized agent is bitwise indistinguishable from an unmemoized one
// (TestDecisionMemoTransparent). A memo must only be shared by agents
// stepped from a single goroutine (one memo per fleet shard); it
// performs no locking.
type DecisionMemo struct {
	entries map[decisionKey]decisionVal
	limit   int
	hits    uint64
	lookups uint64
}

type decisionKey struct {
	snap optimizer.Snapshot
	n    int32
	u    float64
}

type decisionVal struct {
	next  int32
	after optimizer.Snapshot
}

// DefaultDecisionMemoEntries bounds a memo built with size ≤ 0. An
// entry is ~200 B, so the default costs at most a few MiB per shard.
const DefaultDecisionMemoEntries = 1 << 14

// NewDecisionMemo returns a memo holding at most size entries
// (DefaultDecisionMemoEntries if size ≤ 0). When full, the memo is
// cleared wholesale — fleet decision states recur within an epoch or
// two, so a cleared memo repopulates almost immediately, and wholesale
// clearing keeps the hit path free of eviction bookkeeping.
func NewDecisionMemo(size int) *DecisionMemo {
	if size <= 0 {
		size = DefaultDecisionMemoEntries
	}
	return &DecisionMemo{entries: make(map[decisionKey]decisionVal), limit: size}
}

// Stats returns the number of cache hits and total lookups so far.
func (m *DecisionMemo) Stats() (hits, lookups uint64) { return m.hits, m.lookups }

func (m *DecisionMemo) lookup(k decisionKey) (decisionVal, bool) {
	m.lookups++
	v, ok := m.entries[k]
	if ok {
		m.hits++
	}
	return v, ok
}

func (m *DecisionMemo) store(k decisionKey, v decisionVal) {
	if len(m.entries) >= m.limit {
		clear(m.entries)
	}
	m.entries[k] = v
}

// SetDecisionMemo attaches a shared decision memo to the agent and
// reports whether the agent's searcher supports memoization (only
// snapshot-able searchers do; BO memoizes at the GP layer instead —
// see Agent.SetSweepMemo). A nil memo detaches.
func (a *Agent) SetDecisionMemo(m *DecisionMemo) bool {
	if m == nil {
		a.memo, a.memoSearch = nil, nil
		return false
	}
	ms, ok := a.search.(optimizer.Memoizable)
	if !ok {
		return false
	}
	a.memo, a.memoSearch = m, ms
	return true
}

// SetSweepMemo attaches a shared GP fit/sweep memo to a BO agent and
// reports whether the agent's searcher is BO-backed. A nil memo
// detaches. Like DecisionMemo, a SweepMemo must only be shared within
// one scheduling goroutine (one per fleet shard).
func (a *Agent) SetSweepMemo(m *bayesopt.SweepMemo) bool {
	bs, ok := a.search.(*bayesopt.Search)
	if !ok {
		return false
	}
	bs.SetSweepMemo(m)
	a.sweepMemo = m != nil
	return true
}

// DisableHistory stops the agent from appending to its diagnostic
// decision log. The log is the one per-agent allocation that grows
// without bound (one Decision per epoch); fleet runs with a million
// agents disable it and rely on the timeline/aggregate recorders
// instead.
func (a *Agent) DisableHistory() { a.noHistory = true }

// memoDecide is Decide's search step with the memo consulted first.
// Correctness argument: searchers implementing optimizer.Memoizable are
// pure functions of (snapshot, observation) — equal keys therefore
// imply the live path would produce exactly the stored proposal and
// successor state, so restoring them is indistinguishable from running
// the search. NaN utilities never hit (NaN compares unequal to itself
// as a map key), so they bypass the memo entirely.
func (a *Agent) memoDecide(n int, u float64) int {
	obs := optimizer.Observation{N: n, Utility: u}
	if math.IsNaN(u) || n < math.MinInt32 || n > math.MaxInt32 {
		return a.search.Next(obs)
	}
	snap, ok := a.memoSearch.MemoSnapshot()
	if !ok {
		return a.search.Next(obs)
	}
	key := decisionKey{snap: snap, n: int32(n), u: u}
	if v, hit := a.memo.lookup(key); hit {
		a.memoSearch.RestoreMemo(v.after)
		return int(v.next)
	}
	next := a.search.Next(obs)
	if after, ok := a.memoSearch.MemoSnapshot(); ok && next >= 0 && next <= math.MaxInt32 {
		a.memo.store(key, decisionVal{next: int32(next), after: after})
	}
	return next
}

// NewFleetAgent builds an agent for fleet-scale runs: the same decision
// arithmetic as NewAgentByName, but with the per-agent footprint pared
// down — the diagnostic decision history is off, and the seeded BO
// searcher draws from 8-byte fastrand sources instead of math/rand's
// ~4.9 KiB table sources (two tables per BO agent ≈ 9.8 KiB, which
// alone is ~3 GiB across a million sessions). The BO random stream
// therefore differs from NewAgentByName's; the pinned reproduce
// experiments keep the math/rand constructors.
func NewFleetAgent(algo string, maxN int, seed int64) (*Agent, error) {
	var a *Agent
	var err error
	if algo == AlgoBayesian {
		a, err = NewAgent(
			bayesopt.NewWithSources(maxN, fastrand.New(seed), fastrand.New(seed+1)),
			utility.DefaultParams(),
		)
	} else {
		a, err = NewAgentByName(algo, maxN, seed)
	}
	if err != nil {
		return nil, err
	}
	a.DisableHistory()
	return a, nil
}
