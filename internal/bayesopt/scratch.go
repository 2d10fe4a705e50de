package bayesopt

import "sync"

// scratch is per-call working memory: kernel rows, DropFirst update
// vectors, the PredictInto cross-covariance block, a sweep's means and
// stds and its shared acquisition statistics. None of it holds anything
// between calls, so it lives on a free list instead of in every
// searcher — a fleet keeps one scratch per concurrent decider rather
// than one per agent.
type scratch struct {
	buf   []float64
	stats sweepStats
}

// freeScratch is the free list borrow and release share. It is a plain
// mutex-guarded stack rather than a sync.Pool: a pool is emptied at
// every GC, and the refills would make the allocation counts the tests
// pin depend on when the collector ran. The list never holds more
// entries than were ever borrowed at once.
var freeScratch struct {
	sync.Mutex
	list []*scratch
}

// borrow returns scratch with at least n floats, reusing a released
// one when the free list has it.
func borrow(n int) *scratch {
	freeScratch.Lock()
	var sc *scratch
	if k := len(freeScratch.list); k > 0 {
		sc = freeScratch.list[k-1]
		freeScratch.list[k-1] = nil
		freeScratch.list = freeScratch.list[:k-1]
	}
	freeScratch.Unlock()
	if sc == nil {
		sc = new(scratch)
	}
	if cap(sc.buf) < n {
		sc.buf = make([]float64, n)
	}
	sc.buf = sc.buf[:cap(sc.buf)]
	return sc
}

// release returns sc to the free list; the caller must not touch it
// afterwards.
func (sc *scratch) release() {
	freeScratch.Lock()
	freeScratch.list = append(freeScratch.list, sc)
	freeScratch.Unlock()
}

// carve splits the first n floats off buf.
func carve(buf []float64, n int) ([]float64, []float64) {
	return buf[:n:n], buf[n:]
}
