package dataset

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
)

var (
	sinkDataset *Dataset
	freshSeed   atomic.Int64
)

// TestSyntheticDatasetsHoldNoPerFileObjects: a uniform dataset costs a
// constant number of allocations at any count, and a seeded dataset
// adds a constant number of heap objects, not one or more per file.
func TestSyntheticDatasetsHoldNoPerFileObjects(t *testing.T) {
	if a := testing.AllocsPerRun(20, func() { sinkDataset = Uniform("x", 1<<30, GB) }); a > 2 {
		t.Fatalf("Uniform(1<<30 files) allocates %v objects, want ≤ 2", a)
	}
	// A seed no other test uses, fresh on every run, so Small and
	// Mixed really build instead of hitting the seeded cache.
	seed := 1<<40 + freshSeed.Add(1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, m := Small(seed), Mixed(seed)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if s.Count() != 50000 || m.Count() != 50700 {
		t.Fatalf("counts %d / %d", s.Count(), m.Count())
	}
	if grew := int64(after.HeapObjects) - int64(before.HeapObjects); grew > 500 {
		t.Fatalf("Small+Mixed (%d files) left %d more heap objects, want a constant ≤ 500", s.Count()+m.Count(), grew)
	}
}

// TestGrowAppendsARun: growing returns a new dataset whose extra files
// read like a uniform run, and leaves the shared original untouched.
func TestGrowAppendsARun(t *testing.T) {
	base := Large(3)
	g, err := base.Grow(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err = g.Grow(2, 11)
	if err != nil {
		t.Fatal(err)
	}
	n := base.Count()
	if g.Count() != n+6 || g.TotalBytes() != base.TotalBytes()+4*7+2*11 {
		t.Fatalf("grown dataset: %d files / %d bytes", g.Count(), g.TotalBytes())
	}
	if base.Count() != 700 {
		t.Fatalf("Grow changed the original to %d files", base.Count())
	}
	for i, want := range map[int]int64{n - 1: base.FileSize(n - 1), n: 7, n + 3: 7, n + 4: 11, n + 5: 11} {
		if got := g.FileSize(i); got != want {
			t.Errorf("FileSize(%d) = %d, want %d", i, got, want)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// TailBytes agrees with a walk over FileSize at every k.
	for k := 0; k <= g.Count(); k += 37 {
		var want int64
		for i := g.Count() - k; i < g.Count(); i++ {
			want += g.FileSize(i)
		}
		if got := g.TailBytes(k); got != want {
			t.Fatalf("TailBytes(%d) = %d, want %d", k, got, want)
		}
	}
	if _, err := Uniform("o", 2, math.MaxInt64/2-1).Grow(1, 4); err == nil {
		t.Error("grow past int64 accepted")
	}
	for _, c := range []struct {
		n    int
		size int64
	}{{0, 1}, {-1, 1}, {1, 0}, {1, -5}, {math.MaxInt, 2}} {
		if _, err := base.Grow(c.n, c.size); err == nil {
			t.Errorf("Grow(%d, %d) accepted", c.n, c.size)
		}
	}
}

// TestMedianOverRuns: the median counts a run's files, not the run.
func TestMedianOverRuns(t *testing.T) {
	d, err := Uniform("m", 3, 10).Grow(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Sorted sizes: 1 1 10 10 10; index 5/2 = 2.
	if got := d.MedianFileSize(); got != 10 {
		t.Fatalf("median = %d, want 10", got)
	}
	if d, _ = d.Grow(2, 1); d.MedianFileSize() != 1 {
		t.Fatalf("median of 1 1 1 1 10 10 10 = %d, want 1", d.MedianFileSize())
	}
}

func TestFileIndexOutOfRangePanics(t *testing.T) {
	for _, i := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FileSize(%d) of a 3-file dataset did not panic", i)
				}
			}()
			Uniform("r", 3, 1).FileSize(i)
		}()
	}
}
