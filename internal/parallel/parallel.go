// Package parallel provides the deterministic worker pool behind the
// experiment harness. Work items are identified by index; callers write
// results into index-addressed slots, so the assembled output is
// independent of goroutine scheduling and byte-identical to a serial
// run. Map is the idiom for N independent trials whose results a
// caller then reports serially. Each item's own computation must be
// self-contained (its own engine, its own RNG seeded from the item
// index) — the pool adds no synchronisation between items.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the pool width used by Map. It defaults to
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

// Map runs fn(0) … fn(n-1) on Workers() goroutines and returns their
// results in index order. If any call fails, Map returns the error of
// the lowest failing index — the one a serial loop would have stopped
// at — and no results. With Workers() ≤ 1 every call runs inline on
// the caller, in index order; a panic in fn is re-raised as ForEachN
// re-raises it.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, max(n, 0))
	errs := make([]error, len(out))
	ForEachN(n, Workers(), func(i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

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

// Ordered is the reusable state of ordered fan-outs (ForEachOrdered):
// one done flag per item, the shared claim cursor and the helpers'
// first panic. A flag holds the sequence number of the fan-out whose
// fn(i) last returned, so flags need no reset between fan-outs and a
// caller that fans out often sizes them once. An Ordered runs one
// fan-out at a time and must not be copied.
type Ordered struct {
	done   []atomic.Uint64
	seq    uint64
	n      int64
	next   atomic.Int64
	wg     sync.WaitGroup
	failed atomic.Pointer[string]
}

// NewOrdered returns the state for ordered fan-outs of up to n items.
// A larger fan-out still runs, but allocates its flags anew.
func NewOrdered(n int) *Ordered { return &Ordered{done: make([]atomic.Uint64, max(n, 0))} }

// ForEachOrdered runs fn(0) … fn(n-1) across at most workers
// goroutines — the caller's own and workers-1 helpers, as ForEachN —
// and then(0) … then(n-1) on the caller, in ascending i, each as soon
// as its fn(i) has returned: then(i) overlaps the fn calls of higher
// indexes still running on the helpers. While fn(i) is still running
// elsewhere, the caller claims the next unclaimed index from the same
// cursor rather than wait, and spin-yields only when none is left — a
// wait bounded by one fn call. With workers ≤ 1 (or n == 1) it runs
// fn(0), then(0), fn(1), then(1), … inline.
//
// A panic in fn is re-raised on the caller, as ForEachN re-raises it,
// and a panic in then propagates as is; either way no helper claims
// another index, and the panic leaves ForEachOrdered only after every
// helper has stopped.
func (o *Ordered) ForEachOrdered(n, workers int, fn, then func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
			then(i)
		}
		return
	}
	if n > len(o.done) {
		o.done = make([]atomic.Uint64, n)
	}
	o.seq++
	seq := o.seq
	o.n = int64(n)
	o.next.Store(0)
	o.failed.Store(nil)
	o.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go o.help(seq, fn)
	}
	defer o.halt()
	for i := 0; i < n; i++ {
		for o.done[i].Load() != seq {
			if p := o.failed.Load(); p != nil {
				o.halt()
				panic(*p)
			}
			if c := o.next.Add(1) - 1; c < o.n {
				o.run(int(c), seq, fn)
			} else {
				runtime.Gosched()
			}
		}
		then(i)
	}
}

// help is a helper's loop: claim, run, until the cursor passes the end.
func (o *Ordered) help(seq uint64, fn func(i int)) {
	defer o.wg.Done()
	for {
		c := o.next.Add(1) - 1
		if c >= o.n {
			return
		}
		o.run(int(c), seq, fn)
	}
}

// run calls fn(i) and raises its done flag; a panic instead records
// the first failure and moves the cursor past the end, so no helper
// claims another index.
func (o *Ordered) run(i int, seq uint64, fn func(i int)) {
	defer func() {
		if r := recover(); r != nil {
			msg := fmt.Sprintf("parallel: worker panic on item %d: %v", i, r)
			o.failed.CompareAndSwap(nil, &msg)
			o.next.Store(o.n)
		}
	}()
	fn(i)
	o.done[i].Store(seq)
}

// halt stops the claims and waits for every helper to return.
func (o *Ordered) halt() {
	o.next.Store(o.n)
	o.wg.Wait()
}
