// Package parallel provides the deterministic worker pool behind the
// experiment harness. Work items are identified by index; callers write
// results into index-addressed slots, so the assembled output is
// independent of goroutine scheduling and byte-identical to a serial
// run. Each item's own computation must be self-contained (its own
// engine, its own RNG seeded from the item index) — the pool adds no
// synchronisation between items.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the pool width used by ForEach. It defaults to
// GOMAXPROCS and is adjusted by SetWorkers (the -parallel CLI flag).
var defaultWorkers atomic.Int64

func init() { defaultWorkers.Store(int64(runtime.GOMAXPROCS(0))) }

// Workers returns the current default pool width.
func Workers() int { return int(defaultWorkers.Load()) }

// SetWorkers sets the default pool width. Values below 1 are clamped
// to 1 (a serial pool).
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	defaultWorkers.Store(int64(n))
}

// ForEach runs fn(0) … fn(n-1) across the default number of workers
// and returns when all calls have finished.
func ForEach(n int, fn func(i int)) { ForEachN(n, Workers(), fn) }

// ForEachN runs fn(0) … fn(n-1) across at most workers goroutines —
// the caller's own and workers-1 helpers, so a short fan-out costs no
// hand-off and the caller never idles — and returns when all calls have
// finished. With workers ≤ 1 (or n == 1) it runs fn inline, so serial
// execution has no goroutine overhead and an identical call stack. If
// any fn panics, ForEachN re-panics on the caller's goroutine with the
// first recovered value after all helpers have stopped.
func ForEachN(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Value
	)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						panicked.CompareAndSwap(nil, fmt.Sprintf("parallel: worker panic on item %d: %v", i, r))
					}
				}()
				fn(i)
			}()
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
}
