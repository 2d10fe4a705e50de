package session

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/transfer"
)

// winEnv is a scripted WindowEnv for tick-driven session tests.
type winEnv struct {
	setting   transfer.Setting
	applied   []transfer.Setting
	windows   int
	samples   int
	sampleErr error // returned by TakeSample while non-nil
	done      bool
}

func (w *winEnv) Apply(s transfer.Setting) error {
	w.applied = append(w.applied, s)
	w.setting = s
	return nil
}
func (w *winEnv) Done() bool                { return w.done }
func (w *winEnv) BeginWindow()              { w.windows++ }
func (w *winEnv) Setting() transfer.Setting { return w.setting }

func (w *winEnv) TakeSample() (transfer.Sample, error) {
	if w.sampleErr != nil {
		return transfer.Sample{}, w.sampleErr
	}
	w.samples++
	return transfer.Sample{Setting: w.setting, Duration: 1, Throughput: 1e9}, nil
}

// incDecider bumps concurrency by one each epoch.
type incDecider struct{}

func (incDecider) Decide(s transfer.Sample) transfer.Setting {
	n := s.Setting
	n.Concurrency++
	return n
}

func kinds(events []Event) []Kind {
	ks := make([]Kind, len(events))
	for i, e := range events {
		ks[i] = e.Kind
	}
	return ks
}

func newTestSession(t *testing.T, env Env, dec Decider, cfg Config, log *[]Event) *Session {
	t.Helper()
	cfg.Events = func(e Event) { *log = append(*log, e) }
	s, err := New(env, dec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, Config{}); err == nil {
		t.Error("nil environment accepted")
	}
	s, err := New(&winEnv{}, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != "session" {
		t.Errorf("default ID = %q, want session", s.ID())
	}
}

func TestSessionEpochCadence(t *testing.T) {
	env := &winEnv{setting: transfer.Setting{Concurrency: 2, Parallelism: 1, Pipelining: 1}}
	var log []Event
	s := newTestSession(t, env, incDecider{}, Config{ID: "t", Interval: 3, Warmup: 1}, &log)

	s.Start(0, env.setting)
	if env.windows != 1 {
		t.Fatalf("Start opened %d windows, want 1", env.windows)
	}
	for now := 0.0; now <= 10; now += 0.25 {
		if err := s.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	// Epochs at t=3, 6, 9.
	if s.Epochs() != 3 {
		t.Fatalf("epochs = %d, want 3", s.Epochs())
	}
	if len(env.applied) != 3 {
		t.Fatalf("applied %d settings, want 3", len(env.applied))
	}
	if got := env.applied[2].Concurrency; got != 5 {
		t.Fatalf("third decision concurrency = %d, want 5", got)
	}
	// Warm-up window restarts: one per epoch (at 4, 7, 10), beyond the
	// Start window and the TakeSample-internal restarts (winEnv does not
	// model those).
	if env.windows != 4 {
		t.Fatalf("windows = %d, want 4 (start + 3 warm-up restarts)", env.windows)
	}
	want := []Kind{Join, Sample, Decision, Apply, Sample, Decision, Apply, Sample, Decision, Apply}
	if fmt.Sprint(kinds(log)) != fmt.Sprint(want) {
		t.Fatalf("event kinds = %v, want %v", kinds(log), want)
	}
}

// TestFailedSampleWaitsFullEpoch is the regression test for the
// scheduler busy-retry bug: when TakeSample fails at a decision epoch,
// the epoch must advance so the entry retries one interval later, not
// on every tick.
func TestFailedSampleWaitsFullEpoch(t *testing.T) {
	boom := errors.New("empty window")
	env := &winEnv{setting: transfer.DefaultSetting(), sampleErr: boom}
	var log []Event
	s := newTestSession(t, env, incDecider{}, Config{ID: "t", Interval: 3}, &log)

	s.Start(0, env.setting)
	for now := 0.0; now <= 6; now += 0.25 {
		if err := s.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	// Epochs due at 3 and 6: exactly two failed attempts, not one per
	// tick (25 ticks).
	var errs int
	for _, e := range log {
		if e.Kind == Error && errors.Is(e.Err, boom) {
			errs++
		}
	}
	if errs != 2 {
		t.Fatalf("failed-sample attempts = %d, want 2 (one per epoch)", errs)
	}

	// And the session recovers at the next epoch once sampling works.
	env.sampleErr = nil
	if err := s.Tick(9); err != nil {
		t.Fatal(err)
	}
	if s.Epochs() != 1 {
		t.Fatalf("epochs after recovery = %d, want 1", s.Epochs())
	}
}

func TestNilDeciderKeepsSettingAndSkipsApply(t *testing.T) {
	env := &winEnv{setting: transfer.Setting{Concurrency: 4, Parallelism: 1, Pipelining: 1}}
	var log []Event
	s := newTestSession(t, env, nil, Config{ID: "fixed", Interval: 1}, &log)
	s.Start(0, env.setting)
	if err := s.Tick(1); err != nil {
		t.Fatal(err)
	}
	if len(env.applied) != 0 {
		t.Fatalf("nil decider applied %d settings, want 0", len(env.applied))
	}
	want := []Kind{Join, Sample, Decision}
	if fmt.Sprint(kinds(log)) != fmt.Sprint(want) {
		t.Fatalf("event kinds = %v, want %v", kinds(log), want)
	}
	if got := log[2].Setting.Concurrency; got != 4 {
		t.Fatalf("decision echoed concurrency %d, want 4", got)
	}
}

func TestApplyErrorPropagatesFromTick(t *testing.T) {
	env := &failApplyEnv{winEnv{setting: transfer.DefaultSetting()}}
	var log []Event
	s, err := New(env, incDecider{}, Config{Interval: 1, Events: func(e Event) { log = append(log, e) }})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(0, transfer.DefaultSetting())
	err = s.Tick(1)
	if err == nil || !errors.Is(err, errApply) {
		t.Fatalf("Tick err = %v, want wrapped errApply", err)
	}
	var sawError bool
	for _, e := range log {
		if e.Kind == Error && errors.Is(e.Err, errApply) {
			sawError = true
		}
	}
	if !sawError {
		t.Fatal("no Error event for failed apply")
	}
}

var errApply = errors.New("apply refused")

type failApplyEnv struct{ winEnv }

func (f *failApplyEnv) Apply(transfer.Setting) error { return errApply }

func TestLifecycleIdempotence(t *testing.T) {
	env := &winEnv{setting: transfer.DefaultSetting()}
	var log []Event
	s := newTestSession(t, env, nil, Config{ID: "x", Interval: 1}, &log)
	s.Start(0, env.setting)
	s.Start(5, env.setting) // no-op
	s.Finish(10)
	s.Finish(11) // no-op
	s.Leave(12)  // no-op after finish
	if err := s.Tick(20); err != nil {
		t.Fatal(err)
	}
	want := []Kind{Join, Finish}
	if fmt.Sprint(kinds(log)) != fmt.Sprint(want) {
		t.Fatalf("event kinds = %v, want %v", kinds(log), want)
	}
	if !s.Finished() {
		t.Fatal("session not finished")
	}
}

func TestTickRequiresWindowEnv(t *testing.T) {
	env := &blockEnv{}
	s, err := New(env, incDecider{}, Config{Interval: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(0, transfer.DefaultSetting())
	if err := s.Tick(2); err == nil {
		t.Fatal("Tick on a non-window environment accepted")
	}
}

// blockEnv is a minimal blocking Environment for Run tests.
type blockEnv struct {
	measures int
	doneAt   int
	applied  []transfer.Setting
	cancel   context.CancelFunc // when non-nil, called during Measure
}

func (b *blockEnv) Apply(s transfer.Setting) error { b.applied = append(b.applied, s); return nil }
func (b *blockEnv) Done() bool                     { return b.doneAt > 0 && b.measures >= b.doneAt }
func (b *blockEnv) Measure(time.Duration) (transfer.Sample, error) {
	b.measures++
	if b.cancel != nil {
		b.cancel()
	}
	return transfer.Sample{Setting: transfer.DefaultSetting(), Duration: 1, Throughput: 1e8}, nil
}

func TestRunValidatesInputs(t *testing.T) {
	if err := Run(context.Background(), nil, incDecider{}, Config{}); err == nil {
		t.Error("nil environment accepted")
	}
	if err := Run(context.Background(), &blockEnv{doneAt: 1}, nil, Config{}); err == nil {
		t.Error("nil decider accepted")
	}
}

// TestRunCancellationBetweenMeasureAndApply: a context cancelled while
// Measure is in flight still lets the already-measured epoch complete
// (decide + apply), and the loop exits with the context error on the
// next iteration.
func TestRunCancellationBetweenMeasureAndApply(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	env := &blockEnv{cancel: cancel}
	var log []Event
	err := Run(ctx, env, incDecider{}, Config{Interval: 0.001, Events: func(e Event) { log = append(log, e) }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(env.applied) != 1 {
		t.Fatalf("applied %d settings, want 1 (the pre-cancel epoch)", len(env.applied))
	}
	// The stream ends with the cancellation error, not a finish.
	last := log[len(log)-1]
	if last.Kind != Error || !errors.Is(last.Err, context.Canceled) {
		t.Fatalf("last event = %+v, want Error(context.Canceled)", last)
	}
}

func TestRunEmitsLifecycleEvents(t *testing.T) {
	env := &blockEnv{doneAt: 3}
	var log []Event
	err := Run(context.Background(), env, incDecider{}, Config{ID: "r", Interval: 0.001, Events: func(e Event) { log = append(log, e) }})
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{Join, Sample, Decision, Apply, Sample, Decision, Apply, Finish}
	if fmt.Sprint(kinds(log)) != fmt.Sprint(want) {
		t.Fatalf("event kinds = %v, want %v", kinds(log), want)
	}
	for _, e := range log {
		if e.Session != "r" {
			t.Fatalf("event session = %q, want r", e.Session)
		}
	}
}

func TestMultiSink(t *testing.T) {
	if MultiSink(nil, nil) != nil {
		t.Fatal("all-nil MultiSink should be nil")
	}
	var a, b int
	sink := MultiSink(func(Event) { a++ }, nil, func(Event) { b++ })
	sink(Event{Kind: Join})
	if a != 1 || b != 1 {
		t.Fatalf("fan-out counts a=%d b=%d, want 1/1", a, b)
	}
}

func TestWallClockAdvances(t *testing.T) {
	c := NewWallClock()
	t0 := c.Now()
	time.Sleep(2 * time.Millisecond)
	if c.Now() <= t0 {
		t.Fatal("wall clock did not advance")
	}
}
