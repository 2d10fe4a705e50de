package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/session"
	"repro/internal/transfer"
)

// These tests drive agents through session.Run, the wall-clock session
// loop a real transfer (cmd/falconftp) runs them in.

// fakeEnv is a scripted session.Environment.
type fakeEnv struct {
	applied    []transfer.Setting
	samples    []transfer.Sample
	measureErr error
	applyErr   error
	doneAfter  int // Done() returns true after this many Measure calls
	measures   int
}

func (f *fakeEnv) Apply(s transfer.Setting) error {
	if f.applyErr != nil {
		return f.applyErr
	}
	f.applied = append(f.applied, s)
	return nil
}

func (f *fakeEnv) Measure(time.Duration) (transfer.Sample, error) {
	if f.measureErr != nil {
		return transfer.Sample{}, f.measureErr
	}
	f.measures++
	i := f.measures - 1
	if i >= len(f.samples) {
		i = len(f.samples) - 1
	}
	return f.samples[i], nil
}

func (f *fakeEnv) Done() bool { return f.measures >= f.doneAfter }

func sampleAt(n int, tput float64) transfer.Sample {
	return transfer.Sample{
		Setting:    transfer.Setting{Concurrency: n, Parallelism: 1, Pipelining: 1},
		Duration:   1,
		Throughput: tput,
	}
}

func TestRunValidation(t *testing.T) {
	if err := session.Run(context.Background(), nil, NewGDAgent(4), session.Config{}); err == nil {
		t.Error("nil environment accepted")
	}
	env := &fakeEnv{samples: []transfer.Sample{sampleAt(1, 1e9)}, doneAfter: 1}
	if err := session.Run(context.Background(), env, nil, session.Config{}); err == nil {
		t.Error("nil decider accepted")
	}
}

func TestRunCompletesAndAppliesDecisions(t *testing.T) {
	env := &fakeEnv{
		samples:   []transfer.Sample{sampleAt(2, 1e9), sampleAt(3, 1.5e9), sampleAt(4, 2e9)},
		doneAfter: 4,
	}
	agent := NewGDAgent(16)
	var observed int
	err := session.Run(context.Background(), env, agent, session.Config{
		Interval: 0.001,
		OnSample: func(transfer.Sample, transfer.Setting) { observed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(env.applied) == 0 {
		t.Fatal("no settings applied")
	}
	if observed != len(env.applied) {
		t.Fatalf("OnSample fired %d times for %d applies", observed, len(env.applied))
	}
	for _, s := range env.applied {
		if err := s.Validate(); err != nil {
			t.Fatalf("applied invalid setting: %v", err)
		}
	}
}

func TestRunStopsOnContextCancel(t *testing.T) {
	env := &fakeEnv{samples: []transfer.Sample{sampleAt(2, 1e9)}, doneAfter: 1 << 30}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := session.Run(ctx, env, NewGDAgent(8), session.Config{Interval: 0.001})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunPropagatesMeasureError(t *testing.T) {
	boom := errors.New("boom")
	env := &fakeEnv{measureErr: boom, doneAfter: 1 << 30}
	err := session.Run(context.Background(), env, NewGDAgent(8), session.Config{Interval: 0.001})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestRunPropagatesApplyError(t *testing.T) {
	boom := errors.New("nope")
	env := &fakeEnv{
		samples:   []transfer.Sample{sampleAt(2, 1e9)},
		applyErr:  boom,
		doneAfter: 1 << 30,
	}
	err := session.Run(context.Background(), env, NewGDAgent(8), session.Config{Interval: 0.001})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestRunReturnsNilWhenDoneDuringMeasure(t *testing.T) {
	env := &fakeEnv{samples: []transfer.Sample{sampleAt(2, 1e9)}, doneAfter: 1}
	if err := session.Run(context.Background(), env, NewGDAgent(8), session.Config{Interval: 0.001}); err != nil {
		t.Fatalf("err = %v, want nil on completion", err)
	}
	if len(env.applied) != 0 {
		t.Fatal("should not apply after completion")
	}
}

func TestRunDefaultsSampleInterval(t *testing.T) {
	// A zero interval must default rather than busy-loop; completing
	// after one measure keeps the test fast.
	env := &fakeEnv{samples: []transfer.Sample{sampleAt(2, 1e9)}, doneAfter: 1}
	if err := session.Run(context.Background(), env, NewGDAgent(8), session.Config{}); err != nil {
		t.Fatal(err)
	}
}

// bumpDecider raises concurrency by one each epoch — deterministic, so
// ordering tests can predict every decision.
type bumpDecider struct{}

func (bumpDecider) Decide(s transfer.Sample) transfer.Setting {
	n := s.Setting
	n.Concurrency++
	return n
}

func TestRunOnSampleOrdering(t *testing.T) {
	env := &fakeEnv{
		samples:   []transfer.Sample{sampleAt(2, 1e9), sampleAt(3, 1.5e9), sampleAt(4, 2e9)},
		doneAfter: 4,
	}
	var seen []int
	var nexts []transfer.Setting
	err := session.Run(context.Background(), env, bumpDecider{}, session.Config{
		Interval: 0.001,
		OnSample: func(s transfer.Sample, next transfer.Setting) {
			seen = append(seen, s.Setting.Concurrency)
			// The hook runs before the decision is applied: the apply
			// log must still be one behind.
			if len(env.applied) != len(seen)-1 {
				t.Errorf("OnSample %d fired after apply (%d applied)", len(seen), len(env.applied))
			}
			nexts = append(nexts, next)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 3, 4}
	if len(seen) != len(want) {
		t.Fatalf("OnSample saw %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("OnSample order %v, want %v", seen, want)
		}
	}
	// Every next handed to the hook is exactly what was applied, in order.
	if len(env.applied) != len(nexts) {
		t.Fatalf("%d applies for %d hooks", len(env.applied), len(nexts))
	}
	for i := range nexts {
		if env.applied[i] != nexts[i] {
			t.Fatalf("apply %d = %v, hook saw %v", i, env.applied[i], nexts[i])
		}
	}
}
