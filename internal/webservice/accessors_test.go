package webservice

// len reports the number of cached results.
func (c *resultCache) len() int { return c.order.Len() }

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

// New returns an empty service whose worker pool admits one concurrent
// scenario per CPU.
func New() *Service {
	return NewWithOptions(Options{})
}

// NewWithLimit returns an empty service that simulates at most limit
// scenarios concurrently (minimum 1). Submissions are never rejected
// for load: past the limit they queue in acceptance order.
func NewWithLimit(limit int) *Service {
	return NewWithOptions(Options{Workers: limit})
}
