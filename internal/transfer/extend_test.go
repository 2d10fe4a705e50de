package transfer

import (
	"math"
	"testing"

	"repro/internal/dataset"
)

// TestExtendGrowsPrivately: Extend switches the task to a private
// grown dataset — totals grow, the generation bumps, and other tasks
// sharing the original dataset are untouched.
func TestExtendGrowsPrivately(t *testing.T) {
	shared := dataset.Uniform("extend-shared", 5, 1000)
	a, err := NewTask("a", shared, DefaultSetting())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTask("b", shared, DefaultSetting())
	if err != nil {
		t.Fatal(err)
	}
	gen := a.Generation()
	if err := a.Extend(2, 500); err != nil {
		t.Fatal(err)
	}
	if a.Generation() != gen+1 {
		t.Fatalf("generation = %d, want %d", a.Generation(), gen+1)
	}
	if got := a.BytesRemaining(); got != 6000 {
		t.Fatalf("a remaining = %d, want 6000", got)
	}
	if got := b.BytesRemaining(); got != 5000 {
		t.Fatalf("b remaining = %d after a's Extend, want 5000 — shared dataset mutated", got)
	}
	if shared.Count() != 5 || shared.TotalBytes() != 5000 {
		t.Fatalf("shared dataset grew to %d files / %d bytes", shared.Count(), shared.TotalBytes())
	}
	if a.Dataset().Count() != 7 || a.Dataset().FileSize(6) != 500 {
		t.Fatalf("a's grown dataset: %d files, last %d bytes", a.Dataset().Count(), a.Dataset().FileSize(6))
	}
}

// TestExtendRevivesDrainedTask: a task that finished its dataset
// becomes active again with the appended files.
func TestExtendRevivesDrainedTask(t *testing.T) {
	ds := dataset.Uniform("extend-drain", 2, 1000)
	task, err := NewTask("d", ds, Setting{Concurrency: 2, Parallelism: 1, Pipelining: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Drain: 2000 bytes at 8000 bits/s (1000 B/s) takes 2 s.
	task.Advance(1e9, 10)
	if !task.Done() || task.ActiveFiles() != 0 {
		t.Fatalf("task not drained: done=%v active=%d", task.Done(), task.ActiveFiles())
	}
	if err := task.Extend(1, 4000); err != nil {
		t.Fatal(err)
	}
	if task.Done() {
		t.Fatal("task still done after Extend")
	}
	if task.ActiveFiles() != 1 {
		t.Fatalf("ActiveFiles = %d, want 1", task.ActiveFiles())
	}
	if got := task.BytesRemaining(); got != 4000 {
		t.Fatalf("remaining = %d, want 4000", got)
	}
}

// TestExtendRejectsBadInput: empty batches, non-positive sizes, and
// batches whose bytes overflow int64 (alone or on top of the dataset)
// are errors that leave the task unchanged.
func TestExtendRejectsBadInput(t *testing.T) {
	task, err := NewTask("r", dataset.Uniform("extend-bad", 3, 1000), DefaultSetting())
	if err != nil {
		t.Fatal(err)
	}
	gen, rem := task.Generation(), task.BytesRemaining()
	cases := []struct {
		count int
		size  int64
	}{
		{0, 1},
		{-1, 1},
		{1, 0},
		{1, -5},
		{2, math.MaxInt64/2 + 1},      // the batch alone overflows
		{1, math.MaxInt64 - 3000 + 1}, // the batch on top of 3000 bytes overflows
	}
	for i, c := range cases {
		if err := task.Extend(c.count, c.size); err == nil {
			t.Errorf("case %d: Extend(%d, %d) succeeded", i, c.count, c.size)
		}
	}
	if task.Generation() != gen || task.BytesRemaining() != rem {
		t.Fatal("rejected Extend mutated the task")
	}
}
