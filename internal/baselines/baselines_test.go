package baselines

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/testbed"
	"repro/internal/transfer"
)

func TestNewGlobusValidation(t *testing.T) {
	if _, err := NewGlobus(nil); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := NewGlobus(&dataset.Dataset{Label: "empty"}); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestGlobusHeuristicBrackets(t *testing.T) {
	cases := []struct {
		name  string
		ds    *dataset.Dataset
		wantP int
		wantQ int
	}{
		{"small files", dataset.Uniform("s", 100, 1*dataset.MiB), 2, 20},
		{"medium files", dataset.Uniform("m", 100, 100*dataset.MiB), 4, 5},
		{"large files", dataset.Uniform("l", 100, int64(dataset.GB)), 8, 1},
	}
	for _, c := range cases {
		g, err := NewGlobus(c.ds)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s := g.Setting()
		if s.Concurrency != 2 {
			t.Errorf("%s: concurrency = %d, want the conservative 2", c.name, s.Concurrency)
		}
		if s.Parallelism != c.wantP || s.Pipelining != c.wantQ {
			t.Errorf("%s: setting = %v, want p=%d q=%d", c.name, s, c.wantP, c.wantQ)
		}
	}
}

func TestGlobusNeverAdapts(t *testing.T) {
	g, err := NewGlobus(dataset.Main())
	if err != nil {
		t.Fatal(err)
	}
	first := g.Decide(transfer.Sample{Throughput: 1e9})
	second := g.Decide(transfer.Sample{Throughput: 100e9, Loss: 0.5})
	if first != second || first != g.Setting() {
		t.Fatal("Globus changed its setting")
	}
}

func TestHistoryValidation(t *testing.T) {
	bad := []*History{
		{},
		{Entries: []LogEntry{{Concurrency: 0, Throughput: 1}}},
		{Entries: []LogEntry{{Concurrency: 1, Throughput: 0}}},
	}
	for i, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("case %d: invalid history accepted", i)
		}
	}
}

func TestHistoryCapAndPerProc(t *testing.T) {
	h := SyntheticHistory(1e9, 10e9, 20)
	if got := h.Cap(); got != 10e9 {
		t.Fatalf("Cap = %v, want 10e9", got)
	}
	if got := h.PerProc(); got != 1e9 {
		t.Fatalf("PerProc = %v, want 1e9", got)
	}
}

func TestHistoryOptimalConcurrency(t *testing.T) {
	// Saturation at n=10 → optimal ≈10.
	h := SyntheticHistory(1e9, 10e9, 30)
	if got := h.OptimalConcurrency(); got < 9 || got > 12 {
		t.Fatalf("OptimalConcurrency = %d, want ≈10", got)
	}
	// Few entries (no regression path).
	h2 := &History{Entries: []LogEntry{
		{Concurrency: 2, Throughput: 2e9},
		{Concurrency: 4, Throughput: 4e9},
	}}
	if got := h2.OptimalConcurrency(); got != 4 {
		t.Fatalf("OptimalConcurrency = %d, want 4", got)
	}
}

func TestNewHARPValidation(t *testing.T) {
	h := SyntheticHistory(1e9, 10e9, 20)
	if _, err := NewHARP(nil, 32); err == nil {
		t.Error("nil history accepted")
	}
	if _, err := NewHARP(h, 0); err == nil {
		t.Error("maxN 0 accepted")
	}
	if _, err := NewHARP(&History{}, 32); err == nil {
		t.Error("empty history accepted")
	}
}

func TestHARPStartsAtHistoricalOptimum(t *testing.T) {
	h := SyntheticHistory(1e9, 10e9, 20)
	harp, err := NewHARP(h, 32)
	if err != nil {
		t.Fatal(err)
	}
	if cc := harp.Setting().Concurrency; cc < 9 || cc > 12 {
		t.Fatalf("initial concurrency = %d, want ≈10", cc)
	}
}

func TestHARPGreedyRecalibration(t *testing.T) {
	// HARP believes the capacity is 10 Gbps. When a probe shows only
	// 0.5 Gbps per process (a competitor holds a share), it escalates
	// concurrency toward cap/perProc = 20 — the late-comer advantage.
	h := SyntheticHistory(1e9, 10e9, 20)
	harp, err := NewHARP(h, 64)
	if err != nil {
		t.Fatal(err)
	}
	s := harp.Decide(transfer.Sample{
		Setting:    transfer.Setting{Concurrency: 10, Parallelism: 1, Pipelining: 1},
		Duration:   5,
		Throughput: 5e9, // 0.5 Gbps per process
	})
	if s.Concurrency != 20 {
		t.Fatalf("recalibrated concurrency = %d, want 20", s.Concurrency)
	}
}

func TestHARPCapsAtMaxN(t *testing.T) {
	h := SyntheticHistory(1e9, 10e9, 20)
	harp, _ := NewHARP(h, 16)
	s := harp.Decide(transfer.Sample{
		Setting:    transfer.Setting{Concurrency: 10, Parallelism: 1, Pipelining: 1},
		Duration:   5,
		Throughput: 1e9, // 0.1 Gbps per process → wants 100
	})
	if s.Concurrency != 16 {
		t.Fatalf("concurrency = %d, want clamp at 16", s.Concurrency)
	}
}

func TestHARPIgnoresZeroThroughputProbe(t *testing.T) {
	h := SyntheticHistory(1e9, 10e9, 20)
	harp, _ := NewHARP(h, 32)
	before := harp.Setting()
	s := harp.Decide(transfer.Sample{
		Setting:  transfer.Setting{Concurrency: 10, Parallelism: 1, Pipelining: 1},
		Duration: 5,
	})
	if s != before {
		t.Fatalf("zero-throughput probe changed setting to %v", s)
	}
}

func TestHARPHoldsBetweenRecalibrations(t *testing.T) {
	h := SyntheticHistory(1e9, 10e9, 20)
	harp, _ := NewHARP(h, 64)
	sample := transfer.Sample{
		Setting:    transfer.Setting{Concurrency: 10, Parallelism: 1, Pipelining: 1},
		Duration:   5,
		Throughput: 10e9,
	}
	first := harp.Decide(sample) // epoch 1: recalibrates
	held := true
	for i := 0; i < harp.Recalibrate-2; i++ {
		if harp.Decide(sample) != first {
			held = false
		}
	}
	if !held {
		t.Fatal("HARP changed setting between recalibration epochs")
	}
}

// Integration: HARP trained on 10G logs underperforms on a faster
// network (Figure 2a's mechanism).
func TestHARPWrongNetworkCapsThroughput(t *testing.T) {
	cfg := testbed.HPCLab() // ≈27 Gbps achievable
	cfg.NoiseStdDev = 0
	eng, err := testbed.NewEngine(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := testbed.NewScheduler(eng, 1)
	// Trained in a 10 Gbps network: believes cap = 9.5 Gbps.
	harp, err := NewHARP(SyntheticHistory(1.2e9, 9.5e9, 16), 64)
	if err != nil {
		t.Fatal(err)
	}
	task, err := transfer.NewTask("harp", dataset.Uniform("harp", 5000, int64(dataset.GB)), harp.Setting())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(testbed.Participant{Task: task, Controller: harp}); err != nil {
		t.Fatal(err)
	}
	tl := s.Run(180, 0.25)
	tput := tl.MeanThroughputGbps("harp", 90, 180)
	// HPCLab can do ≈27 Gbps; HARP should sit way below (its belief is
	// 9.5), i.e. roughly half or less of the achievable rate.
	if tput > 18 {
		t.Fatalf("HARP = %v Gbps; wrong-network training should cap it well below max", tput)
	}
	if tput < 5 {
		t.Fatalf("HARP = %v Gbps; should still move data", tput)
	}
}
