package testbed

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/session"
	"repro/internal/transfer"
)

func TestSchedulerLogf(t *testing.T) {
	cfg := Emulab(10e6)
	eng, err := NewEngine(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(eng, 1)
	var lines []string
	s.SetLogf(func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	small, err := transfer.NewTask("tiny", dataset.Uniform("tiny", 2, 5_000_000),
		transfer.Setting{Concurrency: 10, Parallelism: 1, Pipelining: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Participant{Task: small}); err != nil {
		t.Fatal(err)
	}
	s.Run(60, 0.25)
	joined, finished := false, false
	for _, l := range lines {
		if strings.Contains(l, "joins") {
			joined = true
		}
		if strings.Contains(l, "finished") {
			finished = true
		}
	}
	if !joined || !finished {
		t.Fatalf("log lines missing join/finish: %v", lines)
	}
}

// TestFailedSampleRetriesNextEpoch pins the busy-retry fix at the
// testbed layer: when TakeSample fails at a decision epoch (here the
// task vanished behind the session's back), the session must wait a
// full interval before retrying instead of hammering every tick.
func TestFailedSampleRetriesNextEpoch(t *testing.T) {
	cfg := Emulab(10e6)
	eng, err := NewEngine(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	task := bigTask("ghost", 2)
	env := new(SimEnvironment)
	if err := initSimEnvironment(env, eng, task); err != nil {
		t.Fatal(err)
	}
	var errs int
	sess, err := session.New(env, FixedController{S: task.Setting()}, session.Config{
		ID:       "ghost",
		Interval: 2,
		Events: func(e session.Event) {
			if e.Kind == session.Error {
				errs++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess.Start(0, task.Setting())
	eng.RemoveTask("ghost") // sampling now fails with "unknown task"
	for eng.Now() < 6 {
		if err := sess.Tick(eng.Now()); err != nil {
			t.Fatal(err)
		}
		eng.Step(0.25)
	}
	// Epochs due at t=2 and 4 within [0,6): exactly two failed attempts
	// across 24 ticks, one per epoch.
	if errs != 2 {
		t.Fatalf("failed-sample attempts = %d, want 2 (one per epoch, not per tick)", errs)
	}
}

func TestOptimalConcurrencyHelper(t *testing.T) {
	cfg := Emulab(10e6)
	cfg.NoiseStdDev = 0
	mk := func() *transfer.Task { return bigTask("opt", 1) }
	opt, err := OptimalConcurrency(cfg, 1, mk, 16, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if opt < 9 || opt > 11 {
		t.Fatalf("OptimalConcurrency = %d, want ≈10", opt)
	}
}

func TestSweepRejectsBadTimes(t *testing.T) {
	cfg := Emulab(10e6)
	mk := func() *transfer.Task { return bigTask("s", 1) }
	if _, _, err := SweepConcurrency(cfg, 1, mk, []int{1}, 0, 5); err == nil {
		t.Error("zero settle time accepted")
	}
	if _, _, err := SweepConcurrency(cfg, 1, mk, []int{1}, 5, 0); err == nil {
		t.Error("zero measure time accepted")
	}
}

func TestCurrentLossReflectsCongestion(t *testing.T) {
	cfg := Emulab(10e6)
	cfg.NoiseStdDev = 0
	eng, err := NewEngine(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	task := bigTask("t", 32) // lossy regime
	if err := eng.AddTask(task); err != nil {
		t.Fatal(err)
	}
	for eng.Now() < 20 {
		eng.Step(0.25)
	}
	if loss := eng.CurrentLoss("t"); loss < 0.03 {
		t.Fatalf("CurrentLoss = %v, want heavy at cc=32", loss)
	}
	if agg := eng.AggregateRate(); agg < 80e6 {
		t.Fatalf("AggregateRate = %v, want ≈100 Mbps", agg)
	}
}

func TestConfigBBRValidation(t *testing.T) {
	cfg := Emulab(10e6)
	cfg.Congestion = "bbr"
	if err := cfg.Validate(); err != nil {
		t.Fatalf("bbr rejected: %v", err)
	}
	cfg.Congestion = "reno-turbo"
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown congestion model accepted")
	}
}

func TestBBRRampFasterThanCubic(t *testing.T) {
	cubic := StampedeCometWAN()
	bbr := StampedeCometWAN()
	bbr.Congestion = "bbr"
	if bbr.rampTau() >= cubic.rampTau() {
		t.Fatalf("BBR tau %v should be below Cubic's %v at WAN RTT", bbr.rampTau(), cubic.rampTau())
	}
}

func TestExplicitRampTauWins(t *testing.T) {
	cfg := Emulab(10e6)
	cfg.RampTau = 7
	if got := cfg.rampTau(); got != 7 {
		t.Fatalf("rampTau = %v, want explicit 7", got)
	}
}
