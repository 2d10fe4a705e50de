package transfer

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

func smallDS() *dataset.Dataset {
	return dataset.Uniform("t", 5, 1000) // 5 files × 1000 bytes
}

func TestSettingValidate(t *testing.T) {
	if err := DefaultSetting().Validate(); err != nil {
		t.Fatalf("DefaultSetting invalid: %v", err)
	}
	bad := []Setting{
		{Concurrency: 0, Parallelism: 1, Pipelining: 1},
		{Concurrency: 1, Parallelism: 0, Pipelining: 1},
		{Concurrency: 1, Parallelism: 1, Pipelining: 0},
		{Concurrency: -3, Parallelism: 1, Pipelining: 1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) did not error", s)
		}
	}
}

func TestSettingConnectionsAndString(t *testing.T) {
	s := Setting{Concurrency: 5, Parallelism: 4, Pipelining: 8}
	if s.Connections() != 20 {
		t.Fatalf("Connections = %d, want 20 (paper's example: cc=5, p=4 → 20)", s.Connections())
	}
	if got := s.String(); got != "cc=5 p=4 q=8" {
		t.Fatalf("String = %q", got)
	}
}

func TestPipelineEfficiencyLargeFilesInsensitive(t *testing.T) {
	// 1 GB file at 1 Gbps over 60ms RTT: 8s transfer vs 60ms gap.
	e1 := PipelineEfficiency(1e9, 1e9, 0.06, 1)
	e8 := PipelineEfficiency(1e9, 1e9, 0.06, 8)
	if e1 < 0.99 {
		t.Fatalf("large-file efficiency at q=1 = %v, want ≈1", e1)
	}
	if e8-e1 > 0.01 {
		t.Fatalf("pipelining should not matter for large files: %v vs %v", e1, e8)
	}
}

func TestPipelineEfficiencySmallFilesSensitive(t *testing.T) {
	// 1 MiB files at 1 Gbps over 60 ms RTT: 8.4 ms transfer vs 60 ms gap.
	e1 := PipelineEfficiency(1<<20, 1e9, 0.06, 1)
	e16 := PipelineEfficiency(1<<20, 1e9, 0.06, 16)
	if e1 > 0.2 {
		t.Fatalf("small-file efficiency at q=1 = %v, want < 0.2", e1)
	}
	if e16 < 3*e1 {
		t.Fatalf("pipelining should strongly help small files: %v vs %v", e1, e16)
	}
}

func TestPipelineEfficiencyEdgeCases(t *testing.T) {
	if got := PipelineEfficiency(0, 1e9, 0.06, 4); got != 1 {
		t.Errorf("zero size eff = %v, want 1", got)
	}
	if got := PipelineEfficiency(1e6, 0, 0.06, 4); got != 1 {
		t.Errorf("zero rate eff = %v, want 1", got)
	}
	if got := PipelineEfficiency(1e6, 1e9, 0, 4); got != 1 {
		t.Errorf("zero rtt eff = %v, want 1", got)
	}
	// q < 1 treated as 1.
	if got, want := PipelineEfficiency(1e6, 1e9, 0.06, 0), PipelineEfficiency(1e6, 1e9, 0.06, 1); got != want {
		t.Errorf("q=0 eff = %v, want same as q=1 (%v)", got, want)
	}
}

// Property: efficiency is in (0,1] and monotonically non-decreasing in q.
func TestPipelineEfficiencyMonotoneProperty(t *testing.T) {
	f := func(sizeKB uint16, rttMS uint8) bool {
		size := float64(sizeKB%10000+1) * 1024
		rtt := float64(rttMS%200) / 1000
		prev := 0.0
		for q := 1; q <= 64; q *= 2 {
			e := PipelineEfficiency(size, 1e9, rtt, q)
			if e <= 0 || e > 1 || e < prev-1e-12 {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewTaskValidation(t *testing.T) {
	ds := smallDS()
	if _, err := NewTask("", ds, DefaultSetting()); err == nil {
		t.Error("empty ID accepted")
	}
	if _, err := NewTask("t", nil, DefaultSetting()); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := NewTask("t", &dataset.Dataset{Label: "x"}, DefaultSetting()); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := NewTask("t", ds, Setting{}); err == nil {
		t.Error("invalid setting accepted")
	}
	if _, err := NewTask("t", &dataset.Dataset{}, DefaultSetting()); err == nil {
		t.Error("unlabelled dataset accepted")
	}
}

func TestTaskLifecycle(t *testing.T) {
	task, err := NewTask("t1", smallDS(), Setting{Concurrency: 2, Parallelism: 1, Pipelining: 1})
	if err != nil {
		t.Fatal(err)
	}
	if task.ID() != "t1" || task.Done() || task.Progress() != 0 {
		t.Fatal("fresh task state wrong")
	}
	if task.ActiveFiles() != 2 {
		t.Fatalf("ActiveFiles = %d, want 2", task.ActiveFiles())
	}

	task.Advance(1500, 1) // finishes file 0, half of file 1
	if task.BytesDone() != 1500 {
		t.Fatalf("BytesDone = %d", task.BytesDone())
	}
	if task.Done() {
		t.Fatal("task done too early")
	}
	if p := task.Progress(); math.Abs(p-0.3) > 1e-12 {
		t.Fatalf("Progress = %v, want 0.3", p)
	}

	task.Advance(3500, 2) // all remaining bytes
	if !task.Done() {
		t.Fatal("task should be done")
	}
	if task.BytesRemaining() != 0 {
		t.Fatalf("BytesRemaining = %d", task.BytesRemaining())
	}
	if task.ActiveFiles() != 0 || task.ActiveConnections() != 0 {
		t.Fatal("done task should have no active files/connections")
	}

	// Advancing a finished task is a no-op.
	task.Advance(1000, 1)
	if task.BytesDone() != 5000 {
		t.Fatal("Advance after done changed bytes")
	}
}

func TestTaskAdvanceOverflowIsClamped(t *testing.T) {
	task, err := NewTask("t", smallDS(), DefaultSetting())
	if err != nil {
		t.Fatal(err)
	}
	task.Advance(1_000_000, 1) // far more than the dataset holds
	if !task.Done() {
		t.Fatal("task should be done")
	}
	if task.BytesDone() != 5000 {
		t.Fatalf("BytesDone = %d, want exactly dataset size", task.BytesDone())
	}
}

func TestTaskAdvanceNegativePanics(t *testing.T) {
	task, _ := NewTask("t", smallDS(), DefaultSetting())
	defer func() {
		if recover() == nil {
			t.Error("Advance(-1, 0) did not panic")
		}
	}()
	task.Advance(-1, 0)
}

func TestActiveFilesBoundedByRemaining(t *testing.T) {
	task, _ := NewTask("t", smallDS(), Setting{Concurrency: 10, Parallelism: 2, Pipelining: 1})
	if task.ActiveFiles() != 5 {
		t.Fatalf("ActiveFiles = %d, want 5 (only 5 files)", task.ActiveFiles())
	}
	if task.ActiveConnections() != 10 {
		t.Fatalf("ActiveConnections = %d, want 10", task.ActiveConnections())
	}
	task.Advance(3000, 1) // 3 files done
	if task.ActiveFiles() != 2 {
		t.Fatalf("ActiveFiles = %d, want 2", task.ActiveFiles())
	}
}

func TestSetSetting(t *testing.T) {
	task, _ := NewTask("t", smallDS(), DefaultSetting())
	if err := task.SetSetting(Setting{Concurrency: 3, Parallelism: 2, Pipelining: 4}); err != nil {
		t.Fatal(err)
	}
	if task.Setting().Concurrency != 3 {
		t.Fatal("SetSetting did not apply")
	}
	if err := task.SetSetting(Setting{}); err == nil {
		t.Fatal("invalid setting accepted")
	}
	if task.Setting().Concurrency != 3 {
		t.Fatal("failed SetSetting modified the task")
	}
}

func TestRemainingMeanFileSize(t *testing.T) {
	ds, err := dataset.Uniform("mix", 1, 100).Grow(1, 300)
	if err != nil {
		t.Fatal(err)
	}
	task, _ := NewTask("t", ds, DefaultSetting())
	if got := task.RemainingMeanFileSize(); got != 200 {
		t.Fatalf("mean = %v, want 200", got)
	}
	task.Advance(100, 1) // file a done
	if got := task.RemainingMeanFileSize(); got != 300 {
		t.Fatalf("mean = %v, want 300", got)
	}
	task.Advance(300, 1)
	if got := task.RemainingMeanFileSize(); got != 0 {
		t.Fatalf("mean after done = %v, want 0", got)
	}
}

// Property: bytesDone is conserved — the sum of Advance amounts (clamped
// to dataset size) equals BytesDone, and Progress stays in [0,1].
func TestTaskConservationProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		task, err := NewTask("t", smallDS(), DefaultSetting())
		if err != nil {
			return false
		}
		var fed int64
		for _, s := range steps {
			amt := int64(s % 1200)
			if !task.Done() {
				// Only count what the task can still absorb.
				room := task.BytesRemaining()
				if amt > room {
					fed += room
				} else {
					fed += amt
				}
			}
			task.Advance(amt, 0.1)
			if p := task.Progress(); p < 0 || p > 1 {
				return false
			}
		}
		return task.BytesDone() == fed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
