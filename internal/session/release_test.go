package session

import (
	"context"
	"errors"
	"testing"

	"repro/internal/transfer"
)

// releaseDecider is incDecider with Release: it counts its releases and
// records the event log's length and last kind at each one.
type releaseDecider struct {
	incDecider
	log      *[]Event
	releases int
	lastKind Kind
	logLen   int
}

func (d *releaseDecider) Release() {
	d.releases++
	d.logLen = len(*d.log)
	if d.logLen > 0 {
		d.lastKind = (*d.log)[d.logLen-1].Kind
	}
}

// TestTerminalEventsReleaseDecider: Finish, Leave and Fail each release
// a Releaser exactly once, after emitting their terminal event; no
// later lifecycle call releases again; a session that never started
// releases nothing; and a Decider without Release ends as before.
func TestTerminalEventsReleaseDecider(t *testing.T) {
	errEnv := errors.New("environment failed")
	for _, tc := range []struct {
		name string
		end  func(s *Session, now float64)
		kind Kind
	}{
		{"finish", func(s *Session, now float64) { s.Finish(now) }, Finish},
		{"leave", func(s *Session, now float64) { s.Leave(now) }, Leave},
		{"fail", func(s *Session, now float64) { s.Fail(now, errEnv) }, Error},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := &winEnv{setting: transfer.DefaultSetting()}
			var log []Event
			dec := &releaseDecider{log: &log}
			s := newTestSession(t, env, dec, Config{ID: "x", Interval: 1}, &log)
			tc.end(s, 0) // not started: a no-op
			if dec.releases != 0 {
				t.Fatalf("%s before Start released %d times", tc.name, dec.releases)
			}
			s.Start(0, env.setting)
			if err := s.Tick(1); err != nil {
				t.Fatal(err)
			}
			if dec.releases != 0 {
				t.Fatalf("released %d times before the session ended", dec.releases)
			}
			tc.end(s, 2)
			if dec.releases != 1 {
				t.Fatalf("%s released %d times, want 1", tc.name, dec.releases)
			}
			if dec.logLen != len(log) || dec.lastKind != tc.kind {
				t.Fatalf("released with %d of %d events logged, last %v; want after the %v event", dec.logLen, len(log), dec.lastKind, tc.kind)
			}
			s.Finish(3)
			s.Leave(4)
			s.Fail(5, errEnv)
			if err := s.Tick(6); err != nil {
				t.Fatal(err)
			}
			if dec.releases != 1 {
				t.Fatalf("later lifecycle calls released again: %d releases", dec.releases)
			}
		})
	}

	t.Run("run", func(t *testing.T) {
		var log []Event
		dec := &releaseDecider{log: &log}
		err := Run(context.Background(), &blockEnv{doneAt: 3}, dec, Config{Interval: 0.001, Events: func(e Event) { log = append(log, e) }})
		if err != nil {
			t.Fatal(err)
		}
		if dec.releases != 1 || dec.lastKind != Finish || dec.logLen != len(log) {
			t.Fatalf("Run released %d times, last event %v at %d of %d; want once, after Finish", dec.releases, dec.lastKind, dec.logLen, len(log))
		}
	})

	t.Run("no release", func(t *testing.T) {
		env := &winEnv{setting: transfer.DefaultSetting()}
		var log []Event
		s := newTestSession(t, env, incDecider{}, Config{ID: "x", Interval: 1}, &log)
		s.Start(0, env.setting)
		if err := s.Tick(1); err != nil {
			t.Fatal(err)
		}
		s.Leave(2)
		if !s.Finished() || log[len(log)-1].Kind != Leave {
			t.Fatalf("a Decider without Release did not end: finished %v, events %v", s.Finished(), kinds(log))
		}
	})
}
