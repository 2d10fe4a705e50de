package parallel

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachNCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		n := 100
		counts := make([]int32, n)
		ForEachN(n, workers, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachNZeroAndNegative(t *testing.T) {
	ran := false
	ForEachN(0, 4, func(int) { ran = true })
	ForEachN(-3, 4, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran for non-positive n")
	}
}

func TestSetWorkersClamps(t *testing.T) {
	old := Workers()
	defer SetWorkers(old)
	SetWorkers(-5)
	if Workers() != 1 {
		t.Fatalf("Workers() = %d, want 1", Workers())
	}
	SetWorkers(7)
	if Workers() != 7 {
		t.Fatalf("Workers() = %d, want 7", Workers())
	}
}

func TestForEachNPropagatesPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic not propagated")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	ForEachN(10, 4, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
}

// goid is the calling goroutine's id, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestForEachOrderedCoversEveryIndexOnce: every fn(i) runs once, and
// then(0) … then(n-1) run on the caller in ascending order, each after
// its own fn(i) returned — over fan-outs of one Ordered that grow past
// the size it was made for and shrink again, so its reused flags are
// exercised too.
func TestForEachOrderedCoversEveryIndexOnce(t *testing.T) {
	o := NewOrdered(8)
	caller := goid()
	for _, workers := range []int{1, 2, 4, 16} {
		for _, n := range []int{1, 7, 100, 8, 3} {
			counts := make([]atomic.Int32, n)
			returned := make([]atomic.Bool, n)
			var order []int
			o.ForEachOrdered(n, workers, func(i int) {
				counts[i].Add(1)
				time.Sleep(time.Duration(i%3) * 10 * time.Microsecond)
				returned[i].Store(true)
			}, func(i int) {
				if !returned[i].Load() {
					t.Errorf("workers=%d n=%d: then(%d) ran before its fn returned", workers, n, i)
				}
				if g := goid(); g != caller {
					t.Errorf("workers=%d n=%d: then(%d) ran on goroutine %s, not the caller's %s", workers, n, i, g, caller)
				}
				order = append(order, i)
			})
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: fn(%d) ran %d times", workers, n, i, c)
				}
			}
			for k, i := range order {
				if i != k {
					t.Fatalf("workers=%d n=%d: then order %v, want ascending", workers, n, order)
				}
			}
			if len(order) != n {
				t.Fatalf("workers=%d n=%d: then ran %d times", workers, n, len(order))
			}
		}
	}
}

// TestForEachOrderedInline: with workers ≤ 1, or a single item, the
// fan-out is the plain loop fn(0), then(0), fn(1), then(1), ….
func TestForEachOrderedInline(t *testing.T) {
	var o Ordered
	for _, tc := range []struct{ n, workers int }{{4, 1}, {4, 0}, {4, -2}, {1, 8}} {
		var log []string
		o.ForEachOrdered(tc.n, tc.workers,
			func(i int) { log = append(log, fmt.Sprintf("fn%d", i)) },
			func(i int) { log = append(log, fmt.Sprintf("then%d", i)) })
		var want []string
		for i := 0; i < tc.n; i++ {
			want = append(want, fmt.Sprintf("fn%d", i), fmt.Sprintf("then%d", i))
		}
		if !slices.Equal(log, want) {
			t.Errorf("n=%d workers=%d: calls %v, want %v", tc.n, tc.workers, log, want)
		}
	}
}

func TestForEachOrderedZeroAndNegative(t *testing.T) {
	var o Ordered
	ran := false
	o.ForEachOrdered(0, 4, func(int) { ran = true }, func(int) { ran = true })
	o.ForEachOrdered(-3, 4, func(int) { ran = true }, func(int) { ran = true })
	if ran {
		t.Fatal("fn or then ran for non-positive n")
	}
}

// TestForEachOrderedPanicStopsHelpers: a panic in fn — on a helper or
// on the caller — or in then leaves ForEachOrdered on the caller only
// after every helper has returned from fn and stopped claiming: no fn
// is running when the caller recovers, far fewer than n ran, and no
// helper goroutine outlives the call. A panic in fn is re-raised naming
// its item, as ForEachN does; a panic in then keeps its own value.
func TestForEachOrderedPanicStopsHelpers(t *testing.T) {
	const n, at = 10000, 3
	for _, tc := range []struct {
		name string
		inFn bool
		want string
	}{
		{"fn", true, "parallel: worker panic on item 3: boom"},
		{"then", false, "boom"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var o Ordered
			before := runtime.NumGoroutine()
			var running, calls atomic.Int32
			var got any
			var runningAtRecover int32
			func() {
				defer func() {
					got = recover()
					runningAtRecover = running.Load()
				}()
				o.ForEachOrdered(n, 4, func(i int) {
					running.Add(1)
					defer running.Add(-1)
					calls.Add(1)
					if tc.inFn && i == at {
						panic("boom")
					}
					time.Sleep(50 * time.Microsecond)
				}, func(i int) {
					if !tc.inFn && i == at {
						panic("boom")
					}
				})
			}()
			if s, _ := got.(string); s != tc.want {
				t.Fatalf("recovered %v, want %q", got, tc.want)
			}
			if runningAtRecover != 0 {
				t.Errorf("%d fn calls still running when the panic reached the caller", runningAtRecover)
			}
			if c := calls.Load(); c >= n/2 {
				t.Errorf("%d of %d fn calls ran: the helpers kept claiming after the panic", c, n)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%d goroutines before, %d after: helpers leaked", before, after)
			}
			// The Ordered is usable again after a panic.
			var sum atomic.Int64
			last := -1
			o.ForEachOrdered(50, 4, func(i int) { sum.Add(int64(i)) }, func(i int) {
				if i != last+1 {
					t.Errorf("then(%d) after then(%d)", i, last)
				}
				last = i
			})
			if sum.Load() != 50*49/2 || last != 49 {
				t.Errorf("fan-out after a panic: sum %d, last then %d", sum.Load(), last)
			}
		})
	}
}

// TestForEachOrderedAllocatesOnlyHelperStarts: a fan-out on a reused
// Ordered, with fn and then bound beforehand, allocates only the starts
// of its workers-1 helper goroutines — no flags, cursor or panic slot.
func TestForEachOrderedAllocatesOnlyHelperStarts(t *testing.T) {
	var sum atomic.Int64
	fn := func(i int) { sum.Add(int64(i)) }
	then := func(int) {}
	for _, workers := range []int{1, 2, 4} {
		o := NewOrdered(16)
		if a := testing.AllocsPerRun(200, func() { o.ForEachOrdered(16, workers, fn, then) }); a > float64(workers-1) {
			t.Errorf("workers=%d: a fan-out allocates %v times, want at most %d", workers, a, workers-1)
		}
	}
}

// withWorkers sets the default pool width for one test.
func withWorkers(t *testing.T, n int) {
	t.Helper()
	old := Workers()
	SetWorkers(n)
	t.Cleanup(func() { SetWorkers(old) })
}

// TestMapResultsInIndexOrder: results land by index whatever order the
// calls finish in.
func TestMapResultsInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		withWorkers(t, workers)
		const n = 100
		got, err := Map(n, func(i int) (int, error) {
			time.Sleep(time.Duration((n-i)%5) * 10 * time.Microsecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapReturnsLowestFailingError: when a higher index fails first,
// Map still returns the lower index's error, as a serial loop would.
func TestMapReturnsLowestFailingError(t *testing.T) {
	for _, workers := range []int{2, 4} {
		withWorkers(t, workers)
		highFailed := make(chan struct{})
		errLow, errHigh := fmt.Errorf("low"), fmt.Errorf("high")
		got, err := Map(6, func(i int) (int, error) {
			switch i {
			case 1:
				<-highFailed
				return 0, errLow
			case 4:
				close(highFailed)
				return 0, errHigh
			}
			return i, nil
		})
		if err != errLow || got != nil {
			t.Fatalf("workers=%d: Map = %v, %v; want nil, %v", workers, got, err, errLow)
		}
	}
}

// TestMapPanicStopsHelpers: a panic in fn reaches the caller naming its
// item, as ForEachN raises it, only after every helper has returned.
func TestMapPanicStopsHelpers(t *testing.T) {
	withWorkers(t, 4)
	before := runtime.NumGoroutine()
	var running atomic.Int32
	var got any
	var runningAtRecover int32
	func() {
		defer func() {
			got = recover()
			runningAtRecover = running.Load()
		}()
		Map(200, func(i int) (int, error) {
			running.Add(1)
			defer running.Add(-1)
			if i == 3 {
				panic("boom")
			}
			time.Sleep(20 * time.Microsecond)
			return i, nil
		})
	}()
	if s, _ := got.(string); s != "parallel: worker panic on item 3: boom" {
		t.Fatalf("recovered %v", got)
	}
	if runningAtRecover != 0 {
		t.Errorf("%d calls still running when the panic reached the caller", runningAtRecover)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before, %d after: helpers leaked", before, after)
	}
}

// TestMapInline: with one worker (or a width clamped to one) every call
// runs on the caller's goroutine, in index order, and no goroutine
// starts.
func TestMapInline(t *testing.T) {
	caller := goid()
	for _, workers := range []int{1, 0, -2} {
		withWorkers(t, workers)
		before := runtime.NumGoroutine()
		var order []int
		got, err := Map(5, func(i int) (string, error) {
			if g := goid(); g != caller {
				t.Errorf("workers=%d: fn(%d) ran on goroutine %s, not the caller's %s", workers, i, g, caller)
			}
			if g := runtime.NumGoroutine(); g > before {
				t.Errorf("workers=%d: %d goroutines during fn(%d), %d before", workers, g, i, before)
			}
			order = append(order, i)
			return fmt.Sprint(i), nil
		})
		if err != nil || !slices.Equal(got, []string{"0", "1", "2", "3", "4"}) {
			t.Fatalf("workers=%d: Map = %v, %v", workers, got, err)
		}
		if !slices.Equal(order, []int{0, 1, 2, 3, 4}) {
			t.Errorf("workers=%d: call order %v, want ascending", workers, order)
		}
	}
}

func TestMapZeroAndNegative(t *testing.T) {
	for _, n := range []int{0, -3} {
		got, err := Map(n, func(int) (int, error) {
			t.Fatal("fn ran for non-positive n")
			return 0, nil
		})
		if err != nil || got == nil || len(got) != 0 {
			t.Errorf("n=%d: Map = %#v, %v; want an empty result", n, got, err)
		}
	}
}
