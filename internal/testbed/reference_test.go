package testbed

import (
	"fmt"

	"repro/internal/session"
)

// refRun is the always-tick reference for Scheduler.Run: every loop
// head it scans every participant for joins and leaves, calls
// Session.Tick on every live session, takes one full engine Step,
// sweeps every participant for completions, and records. It reuses the
// scheduler's join, reserveSeries and recordPoint, so the only thing it
// does differently from Run is how it finds the work — which is what
// the transparency tests compare. With tiered set it advances the
// engine with RunTicks(1) instead, so each tick takes the tier the
// engine picks, and a comparison isolates the scheduler from the
// engine's tiers.
type refRun struct {
	s          *Scheduler
	until      float64
	tick       float64
	tiered     bool
	tl         *Timeline
	sink       session.Sink
	nextRecord float64
	sessions   []session.Session
	envs       []SimEnvironment
}

func newRefRun(s *Scheduler, until, tick float64, tiered bool) *refRun {
	tl := s.newTimeline()
	return &refRun{
		s:        s,
		until:    until,
		tick:     tick,
		tiered:   tiered,
		tl:       tl,
		sink:     s.runSink(tl),
		sessions: make([]session.Session, len(s.parts)),
		envs:     make([]SimEnvironment, len(s.parts)),
	}
}

// runVia runs s to until in 0.25 s ticks and returns its timeline:
// through Scheduler.Run, or with ref on the reference loop (tiered as
// for refRun).
func runVia(s *Scheduler, until float64, ref, tiered bool) *Timeline {
	if !ref {
		return s.Run(until, 0.25)
	}
	r := newRefRun(s, until, 0.25, tiered)
	for r.step() {
	}
	return r.tl
}

// step executes one tick of the reference loop; it reports false once
// the horizon is reached.
func (r *refRun) step() bool {
	s := r.s
	eng := s.eng
	now := eng.Now()
	if now >= r.until {
		return false
	}

	for i := range s.parts {
		e := &s.parts[i]
		if e.sess == nil && now >= e.p.JoinAt {
			s.join(i, &r.envs[i], &r.sessions[i], r.sink)
			if s.recMode == RecordFull {
				s.reserveSeries(r.tl, i, now, r.until)
			}
			e.sess.Start(now, e.p.Task.Setting())
		}
		if e.sess != nil && !e.sess.Finished() && e.p.LeaveAt > 0 && now >= e.p.LeaveAt {
			eng.RemoveTask(e.p.Task.ID())
			e.sess.Leave(now)
		}
	}

	for i := range s.parts {
		e := &s.parts[i]
		if e.sess == nil || e.sess.Finished() {
			continue
		}
		if err := e.sess.Tick(now); err != nil {
			panic(fmt.Sprintf("testbed: controller for %q produced invalid setting: %v", e.p.Task.ID(), err))
		}
	}

	if r.tiered {
		eng.RunTicks(1, r.tick)
	} else {
		eng.Step(r.tick)
	}

	for i := range s.parts {
		e := &s.parts[i]
		if e.sess != nil && !e.sess.Finished() && e.p.Task.Done() {
			eng.RemoveTask(e.p.Task.ID())
			e.sess.Finish(eng.Now())
		}
	}

	if t := eng.Now(); t >= r.nextRecord {
		for i := range s.parts {
			if e := &s.parts[i]; e.sess != nil && !e.sess.Finished() {
				s.recordPoint(r.tl, i, r.envs[i].h, t)
			}
		}
		r.nextRecord = t + s.record
	}
	return true
}
