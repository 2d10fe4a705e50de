// Package session implements the unified Falcon control loop — the
// paper's §3.2 cycle of sample → utility → search → apply — shared by
// the simulated testbeds (testbed.Scheduler orchestrates N sessions
// over the engine's virtual clock) and real transfers (Run drives one
// session on a wall clock). One Session owns the epoch cadence, warm-up
// discard, and decision flow for one participant, and emits a typed
// Event stream that timelines, live status endpoints, and CLI reporters
// consume.
//
// Determinism: a Session performs no time or randomness reads of its
// own. Drivers stamp every call with the current clock value, so a
// virtual-clock run is exactly reproducible and the simulated and real
// paths execute identical decision logic.
package session

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/transfer"
)

// Decider chooses the next transfer setting from the sample of the
// last decision epoch. Falcon agents, the Globus heuristic, and the
// HARP model all satisfy this interface.
type Decider interface {
	Decide(s transfer.Sample) transfer.Setting
}

// IsolatedDecider is the opt-in a Decider makes when its Decide touches
// nothing but state the controller itself owns (its own searcher and
// rng): DecideIsolated reporting true lets a driver run Decide off its
// own goroutine, concurrently with other sessions' controllers.
// Controllers that do not implement it are only ever called inline.
type IsolatedDecider interface {
	Decider
	DecideIsolated() bool
}

// Releaser is the opt-in a Decider makes when it holds state that only
// its decisions need: Finish, Leave and Fail call Release once, after
// the terminal event, on the driver's goroutine — never beside a
// Decide. A released controller is never asked to decide again.
type Releaser interface {
	Decider
	Release()
}

// Env is the minimal contract a Session drives: reconfigure the
// transfer and report completion.
type Env interface {
	// Apply reconfigures the running transfer.
	Apply(s transfer.Setting) error
	// Done reports whether the transfer has completed.
	Done() bool
}

// Environment is a live transfer measured by blocking sampling — the
// wall-clock contract Run drives. Measure blocks for roughly d while
// the transfer proceeds, then returns the observed sample; the transfer
// continues throughout, Falcon's monitoring runs beside the data
// movement (§3.2). The real-FTP client (ftp.Client) implements it.
type Environment interface {
	Env
	Measure(d time.Duration) (transfer.Sample, error)
}

// WindowEnv is a live transfer measured by cooperative windows — the
// virtual-time contract Tick drives. The driver advances time
// externally (stepping the simulation engine); BeginWindow restarts
// measurement accumulation and TakeSample closes the window
// instantaneously. The simulator (testbed.SimEnvironment) implements it.
type WindowEnv interface {
	Env
	BeginWindow()
	TakeSample() (transfer.Sample, error)
}

// Config parameterises one Session.
type Config struct {
	// ID names the session in events (usually the task ID). Empty
	// defaults to "session".
	ID string
	// Index is stamped on every event beside the ID (see Event.Index).
	// Drivers that keep their sessions in a table set it to the
	// session's position there.
	Index int
	// Interval is the decision-epoch cadence in seconds. Values ≤ 0
	// default to 3 (the paper's LAN sample-transfer duration).
	Interval float64
	// Warmup is how long after a setting change the measurement window
	// is discarded before metrics accumulate, excluding the TCP ramp-up
	// transient (§3: performance is captured "once the sample transfer
	// is executed for a sufficient amount of time"). Values ≤ 0 disable
	// the discard.
	Warmup float64
	// Events, when non-nil, receives the session's event stream.
	Events Sink
	// OnSample, when non-nil, observes every (sample, next setting)
	// pair — the hook experiments and CLIs use for live reporting.
	OnSample func(s transfer.Sample, next transfer.Setting)
}

// Session runs the Falcon loop for one participant: it owns the epoch
// cadence, the warm-up discard, and the decision flow, independent of
// whether time is simulated or real. Drivers call Start once, then
// either Tick (virtual time, window environments) or Observe (wall
// clock, blocking environments) as time passes, and Finish/Leave when
// the transfer ends.
type Session struct {
	env Env
	win WindowEnv // non-nil when env supports cooperative windows
	dec Decider   // nil keeps the initial setting forever
	cfg Config

	started  bool
	finished bool
	isolated bool // dec declared itself an IsolatedDecider at Init
	// nextDecision is the time of the next decision epoch.
	nextDecision float64
	// resetAt is a pending measurement-window restart (warm-up expiry);
	// 0 means none pending.
	resetAt float64
	// epochs counts completed decision epochs.
	epochs int
}

// New builds a session over env. A nil Decider is allowed and keeps
// the environment's setting unchanged (the fixed-strategy baseline).
// It returns an error for a nil environment.
func New(env Env, dec Decider, cfg Config) (*Session, error) {
	s := new(Session)
	if err := Init(s, env, dec, cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Init constructs a session in place, overwriting *s entirely. It is
// New for arena-allocated sessions: fleet-scale schedulers carve their
// sessions out of one flat slab instead of a million individual heap
// objects, and Init gives them New's exact validation and defaulting.
func Init(s *Session, env Env, dec Decider, cfg Config) error {
	if env == nil {
		return errors.New("session: nil environment")
	}
	if cfg.ID == "" {
		cfg.ID = "session"
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 3
	}
	win, _ := env.(WindowEnv)
	iso, ok := dec.(IsolatedDecider)
	*s = Session{env: env, win: win, dec: dec, cfg: cfg, isolated: ok && iso.DecideIsolated()}
	return nil
}

// Finished reports whether the session has ended (Finish, Leave or
// Fail).
func (s *Session) Finished() bool { return s.finished }

// Start joins the session at time now: the first measurement window
// opens (window environments), the first decision epoch is scheduled
// one interval out, and a Join event carrying the initial setting is
// emitted. Repeated calls are no-ops.
func (s *Session) Start(now float64, initial transfer.Setting) {
	if s.started {
		return
	}
	s.started = true
	s.nextDecision = now + s.cfg.Interval
	if s.win != nil {
		s.win.BeginWindow()
	}
	s.emit(Event{Kind: Join, Time: now, Setting: initial})
}

// NextDeadline returns the earliest future time at which Tick can act:
// the next decision epoch or a pending warm-up window restart,
// whichever comes first. Drivers that batch dead ticks (the testbed's
// event-horizon stepping) only need to call Tick at times ≥
// NextDeadline(); calling it earlier is a no-op by construction. It
// returns +Inf for sessions that have not started or have finished.
func (s *Session) NextDeadline() float64 {
	if !s.started || s.finished {
		return math.Inf(1)
	}
	d := s.nextDecision
	if s.resetAt > 0 && s.resetAt < d {
		d = s.resetAt
	}
	return d
}

// Tick executes the session's due actions at time now on a window
// environment: the decision epoch (sample → decide → apply) if one is
// due, then any pending warm-up window restart. The driver advances
// time between ticks by stepping the simulation. A failed sample (an
// empty window after a join race) is reported as an Error event and
// retried at the next epoch, not the next tick. Tick returns the apply
// error, if any. It is Sample followed by Commit; a driver ticking many
// sessions at one instant may call the steps itself (see Pending).
func (s *Session) Tick(now float64) error {
	var p Pending
	s.Sample(now, &p)
	return s.Commit(now, &p)
}

// Pending carries one tick of one session between its steps, so a
// driver can run the steps of many sessions due at the same instant as
// phases: every Sample in its serial order (sampling reads the
// environment, which sessions may share), then Decide for the ticks
// that report Isolated — from any goroutine, concurrently — then every
// Commit, again serially and in order, which emits the tick's events
// exactly as Tick would. Decide is optional: Commit runs the controller
// inline for a tick nobody decided.
type Pending struct {
	sample transfer.Sample
	next   transfer.Setting
	err    error // the sample step's failure, reported at Commit
	live   bool  // Sample found the session ticking: Commit has work
	epoch  bool  // a decision epoch was due and its window is closed
	ready  bool  // next already holds the controller's decision
	iso    bool  // a sampled epoch whose controller is isolated
}

// Isolated reports whether the tick holds a sampled epoch whose
// controller may be run by Decide off the driver's goroutine.
func (p *Pending) Isolated() bool { return p.iso }

// Sample is the first step of a tick: if a decision epoch is due it
// closes the measurement window into p and advances the epoch — before
// the outcome is handled, so a failed sample waits a full interval
// instead of busy-retrying. It emits nothing; Commit reports whatever
// went wrong.
func (s *Session) Sample(now float64, p *Pending) {
	*p = Pending{}
	if !s.started || s.finished {
		return
	}
	if s.win == nil {
		p.err = errors.New("session: Tick requires a window environment")
		return
	}
	p.live = true
	if now >= s.nextDecision && !s.env.Done() {
		p.sample, p.err = s.win.TakeSample()
		p.epoch = true
		p.iso = s.isolated && p.err == nil
		s.nextDecision = now + s.cfg.Interval
	}
}

// Decide is the optional middle step: it runs the controller (without
// one the sampled setting stands) on p's sample, once. It touches the
// controller and p only, so for an Isolated tick it is safe beside
// other sessions' Decide calls.
func (s *Session) Decide(p *Pending) {
	if !p.epoch || p.err != nil || p.ready {
		return
	}
	p.next, p.ready = p.sample.Setting, true
	if s.dec != nil {
		p.next = s.dec.Decide(p.sample)
	}
}

// Commit is the last step: it reports the sampled epoch — Sample,
// Decision and Apply events around the apply itself, or the Error of a
// failed sample — and then restarts the window if a warm-up expired.
// It returns the apply error, if any.
func (s *Session) Commit(now float64, p *Pending) error {
	if !p.live {
		return p.err
	}
	if p.err != nil {
		s.emit(Event{Kind: Error, Time: now, Err: p.err})
	} else if p.epoch {
		if err := s.conclude(now, p); err != nil {
			return err
		}
	}
	if s.resetAt > 0 && now >= s.resetAt {
		s.win.BeginWindow()
		s.resetAt = 0
	}
	return nil
}

// Observe runs the decision flow for one completed sample at time now:
// emit Sample, decide, emit Decision, apply, emit Apply, and schedule
// the warm-up discard. It is the shared heart of the virtual-clock
// (Tick) and wall-clock (Run) paths. The returned error is the apply
// failure, if any.
func (s *Session) Observe(now float64, sample transfer.Sample) error {
	return s.conclude(now, &Pending{sample: sample, epoch: true})
}

// conclude is the decision flow over p's sample, running the controller
// between the Sample and Decision events unless Decide already has.
func (s *Session) conclude(now float64, p *Pending) error {
	sample := p.sample
	s.epochs++
	s.emit(Event{Kind: Sample, Time: now, Sample: sample})
	s.Decide(p)
	next := p.next
	s.emit(Event{Kind: Decision, Time: now, Sample: sample, Setting: next})
	if s.cfg.OnSample != nil {
		s.cfg.OnSample(sample, next)
	}
	if s.dec != nil {
		if err := s.env.Apply(next); err != nil {
			err = fmt.Errorf("session: apply %v: %w", next, err)
			s.emit(Event{Kind: Error, Time: now, Err: err})
			return err
		}
		s.emit(Event{Kind: Apply, Time: now, Setting: next})
	}
	if s.cfg.Warmup > 0 {
		s.resetAt = now + s.cfg.Warmup
	}
	return nil
}

// Finish marks the transfer complete at time now, emits Finish and
// releases the controller (Releaser). Repeated calls are no-ops.
func (s *Session) Finish(now float64) { s.end(Event{Kind: Finish, Time: now}) }

// Leave removes the session before completion (a departing competitor),
// emits Leave and releases the controller (Releaser). Repeated calls
// are no-ops.
func (s *Session) Leave(now float64) { s.end(Event{Kind: Leave, Time: now}) }

// Fail emits an Error event, ends the session and releases the
// controller (Releaser). It is used by drivers when the environment
// itself fails.
func (s *Session) Fail(now float64, err error) { s.end(Event{Kind: Error, Time: now, Err: err}) }

// end ends a started session once: it emits the terminal event e, then
// hands the controller its Release, if it has one.
func (s *Session) end(e Event) {
	if !s.started || s.finished {
		return
	}
	s.finished = true
	s.emit(e)
	if r, ok := s.dec.(Releaser); ok {
		r.Release()
	}
}

func (s *Session) emit(e Event) {
	if s.cfg.Events == nil {
		return
	}
	e.Session, e.Index = s.cfg.ID, s.cfg.Index
	s.cfg.Events(e)
}

// Run drives a Decider against a blocking Environment until the
// transfer completes or the context is cancelled — the wall-clock
// instantiation of the session loop, behind the falconftp CLI. Events
// are stamped with a wall clock started at the call.
//
// Run returns nil on completion, the context error on cancellation,
// and any Measure/Apply failure otherwise. Unlike the orchestrated
// virtual path, a nil decider is rejected: a fixed-setting real
// transfer needs no session loop at all.
func Run(ctx context.Context, env Environment, dec Decider, cfg Config) error {
	if env == nil {
		return errors.New("session: nil environment")
	}
	if dec == nil {
		return errors.New("session: nil decider")
	}
	sess, err := New(env, dec, cfg)
	if err != nil {
		return err
	}
	clock := NewWallClock()
	var initial transfer.Setting
	if cur, ok := env.(interface{ Setting() transfer.Setting }); ok {
		initial = cur.Setting()
	}
	sess.Start(clock.Now(), initial)
	interval := time.Duration(sess.cfg.Interval * float64(time.Second))
	warmup := time.Duration(sess.cfg.Warmup * float64(time.Second))
	for !env.Done() {
		if err := ctx.Err(); err != nil {
			sess.Fail(clock.Now(), err)
			return err
		}
		if warmup > 0 {
			// Wall-clock warm-up discard: let the post-change transient
			// pass unmeasured, as the virtual path does via BeginWindow.
			if _, err := env.Measure(warmup); err != nil {
				sess.Fail(clock.Now(), err)
				return fmt.Errorf("session: measure: %w", err)
			}
			if env.Done() {
				break
			}
		}
		sample, err := env.Measure(interval)
		if err != nil {
			sess.Fail(clock.Now(), err)
			return fmt.Errorf("session: measure: %w", err)
		}
		if env.Done() {
			break
		}
		if err := sess.Observe(clock.Now(), sample); err != nil {
			return err
		}
	}
	sess.Finish(clock.Now())
	return nil
}
