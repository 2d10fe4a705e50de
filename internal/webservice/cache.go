package webservice

import (
	"container/list"
	"fmt"

	"repro/internal/testbed"
)

// defaultCacheSize bounds the number of completed scenarios kept for
// content-addressed reuse.
const defaultCacheSize = 64

// cacheKey content-addresses a scenario by the SHA-256 of its full
// normalised document — topology, environment, agent roster, AND the
// mutation schedule — so every field that influences the run is part
// of the address and nothing else is. Two requests with the same key
// are the same deterministic simulation, so a completed result can be
// served verbatim; scenarios differing only in their mutation schedule
// hash apart and never alias. Flat legacy requests are lowered onto
// documents by normalise, so both request shapes share one key space
// (a flat request and its equivalent document deduplicate).
func cacheKey(r ScenarioRequest) (string, error) {
	if r.doc == nil {
		return "", fmt.Errorf("webservice: request was not normalised")
	}
	h, err := r.doc.Hash()
	if err != nil {
		return "", err
	}
	return "doc|" + h, nil
}

// resultValue is the immutable outcome of one completed simulation,
// stored for content-addressed reuse: the published result fields plus
// the timeline (for charts) and the original run's event feed (so
// cache hits can replay progress and SSE).
type resultValue struct {
	results  []AgentResult
	jain     float64
	timeline *testbed.Timeline
	progress *progressTracker
}

// resultCache is an LRU map from cacheKey to a completed result.
// Callers synchronise access (the service holds its mutex around every
// cache call).
type resultCache struct {
	cap   int
	order *list.List // front = most recently used; values are *cacheEntry
	byKey map[string]*list.Element
}

type cacheEntry struct {
	key string
	val *resultValue
}

func newResultCache(capacity int) *resultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &resultCache{cap: capacity, order: list.New(), byKey: make(map[string]*list.Element)}
}

// get returns the cached completed result for key, refreshing its
// recency.
func (c *resultCache) get(key string) (*resultValue, bool) {
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// put stores a completed result under key, evicting the least
// recently used entry past capacity.
func (c *resultCache) put(key string, val *resultValue) {
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
	for c.order.Len() > c.cap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.byKey, el.Value.(*cacheEntry).key)
	}
}
