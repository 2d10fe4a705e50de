package session

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/transfer"
)

// isoDecider is incDecider declaring itself isolated (or not).
type isoDecider struct{ iso bool }

func (d isoDecider) Decide(s transfer.Sample) transfer.Setting { return incDecider{}.Decide(s) }
func (d isoDecider) DecideIsolated() bool                      { return d.iso }

// phaseWorld is three sessions over scripted environments sharing one
// event log: a good session, one whose samples fail on chosen ticks,
// and one whose warm-up (3 s) equals its interval, so a window restart
// falls due on the very tick of the next decision.
type phaseWorld struct {
	envs [3]*winEnv
	sess [3]*Session
	log  []Event
}

var errEmptyWindow = errors.New("empty window")

func newPhaseWorld(t *testing.T) *phaseWorld {
	t.Helper()
	w := &phaseWorld{}
	cfgs := [3]Config{
		{ID: "a", Index: 0, Interval: 3, Warmup: 1},
		{ID: "b", Index: 1, Interval: 3, Warmup: 1},
		{ID: "c", Index: 2, Interval: 3, Warmup: 3},
	}
	decs := [3]Decider{isoDecider{true}, isoDecider{true}, isoDecider{false}}
	for i := range w.sess {
		w.envs[i] = &winEnv{setting: transfer.Setting{Concurrency: 1 + i, Parallelism: 1, Pipelining: 1}}
		w.sess[i] = newTestSession(t, w.envs[i], decs[i], cfgs[i], &w.log)
		w.sess[i].Start(0, w.envs[i].setting)
	}
	return w
}

// script fails b's samples on the epochs at t=6 and t=9, and c's at
// t=9 — the one tick on which c's same-tick window restart is not
// superseded by a decision.
func (w *phaseWorld) script(now float64) {
	w.envs[1].sampleErr, w.envs[2].sampleErr = nil, nil
	if now == 6 || now == 9 {
		w.envs[1].sampleErr = errEmptyWindow
	}
	if now == 9 {
		w.envs[2].sampleErr = errEmptyWindow
	}
}

// TestTickEqualsPhases: ticking sessions one after another is, event
// for event and in every piece of session and environment state, the
// same as running all their Samples, then all their Decides, then all
// their Commits — including a failed sample between two good ones
// (its Error lands between its neighbours' events, and its epoch still
// advances a full interval), a warm-up restart due on the tick of a
// decision, and a controller that did not declare itself isolated.
func TestTickEqualsPhases(t *testing.T) {
	serial, phased := newPhaseWorld(t), newPhaseWorld(t)
	for now := 0.0; now <= 13; now += 0.25 {
		serial.script(now)
		for _, s := range serial.sess {
			if err := s.Tick(now); err != nil {
				t.Fatal(err)
			}
		}

		phased.script(now)
		var pend [3]Pending
		for i, s := range phased.sess {
			s.Sample(now, &pend[i])
		}
		if now == 6 {
			if pend[1].Isolated() {
				t.Error("a failed sample reports an isolated decision")
			}
			if got := phased.sess[1].NextDeadline(); got != 9 {
				t.Errorf("after a failed sample at t=6 the next deadline is %v, want 9", got)
			}
			if !pend[0].Isolated() || pend[2].Isolated() {
				t.Errorf("Isolated() = %v, %v for the isolated and the plain controller, want true, false",
					pend[0].Isolated(), pend[2].Isolated())
			}
		}
		if len(phased.log) != len(serial.log)-countAt(serial.log, now) {
			t.Fatalf("t=%v: Sample emitted events", now)
		}
		for i := len(phased.sess) - 1; i >= 0; i-- { // any order: Decide is private
			if pend[i].Isolated() {
				phased.sess[i].Decide(&pend[i])
			}
		}
		for i, s := range phased.sess {
			if err := s.Commit(now, &pend[i]); err != nil {
				t.Fatal(err)
			}
		}
	}

	if !reflect.DeepEqual(serial.log, phased.log) {
		for i := range serial.log {
			if i >= len(phased.log) || !reflect.DeepEqual(serial.log[i], phased.log[i]) {
				t.Fatalf("event %d differs:\n  tick:   %+v\n  phases: %+v", i, serial.log[i], phased.log[min(i, len(phased.log)-1)])
			}
		}
		t.Fatalf("tick emitted %d events, phases %d", len(serial.log), len(phased.log))
	}
	for i := range serial.sess {
		if !reflect.DeepEqual(serial.envs[i], phased.envs[i]) {
			t.Errorf("session %d environment: tick %+v, phases %+v", i, serial.envs[i], phased.envs[i])
		}
		a, b := serial.sess[i], phased.sess[i]
		if a.Epochs() != b.Epochs() || a.NextDeadline() != b.NextDeadline() {
			t.Errorf("session %d: tick epochs %d deadline %v, phases epochs %d deadline %v",
				i, a.Epochs(), a.NextDeadline(), b.Epochs(), b.NextDeadline())
		}
	}

	// The scenario did what it says: b failed twice, between a's and
	// c's events of the same tick, and c's restart due on the tick of a
	// decision was superseded by it every time but t=9, when its sample
	// failed and the window restarted instead.
	var order []string
	for _, e := range serial.log {
		if e.Time == 6 {
			order = append(order, e.Session+":"+string(e.Kind))
		}
	}
	want := []string{"a:sample", "a:decision", "a:apply", "b:error", "c:sample", "c:decision", "c:apply"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("events at t=6 = %v, want %v", order, want)
	}
	if got := serial.sess[1].Epochs(); got != 2 {
		t.Errorf("b completed %d epochs, want 2 (t=3 and t=12)", got)
	}
	if got := serial.envs[2].windows; got != 2 {
		t.Errorf("c opened %d windows, want 2 (start, and the restart at t=9)", got)
	}
}

func countAt(log []Event, now float64) int {
	n := 0
	for _, e := range log {
		if e.Time == now && e.Kind != Join {
			n++
		}
	}
	return n
}

// TestCommitWithoutSampleIsNoop: a Pending that no Sample filled — or
// that Sample filled for a session not ticking — commits to nothing.
func TestCommitWithoutSampleIsNoop(t *testing.T) {
	env := &winEnv{setting: transfer.DefaultSetting()}
	var log []Event
	s := newTestSession(t, env, incDecider{}, Config{Interval: 3}, &log)
	var p Pending
	s.Sample(5, &p) // not started
	s.Decide(&p)
	if err := s.Commit(5, &p); err != nil || len(log) != 0 || env.samples != 0 {
		t.Fatalf("unstarted session ticked: err %v, %d events, %d samples", err, len(log), env.samples)
	}
	s.Start(0, env.setting)
	s.Finish(1)
	log = nil
	s.Sample(5, &p)
	if err := s.Commit(5, &p); err != nil || len(log) != 0 || env.samples != 0 {
		t.Fatalf("finished session ticked: err %v, %d events, %d samples", err, len(log), env.samples)
	}
}
