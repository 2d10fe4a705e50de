package testbed

import (
	"fmt"
	"time"

	"repro/internal/session"
	"repro/internal/transfer"
)

// SimEnvironment adapts one task on an Engine to the session
// environment contracts, so the simulator and the real FTP stack are
// driven by literally the same session loop:
//
//   - session.WindowEnv: cooperative measurement windows on virtual
//     time, used by the Scheduler's tick-driven orchestration.
//   - session.Environment (Apply/Measure/Done): blocking sampling on
//     simulated time, used to run core.Run against the simulator.
//     Measure advances the shared engine itself, so this path is for
//     single-session runs only.
//
// Constructing a SimEnvironment registers the task with the engine.
type SimEnvironment struct {
	eng  *Engine
	task *transfer.Task
	h    int32 // the task's engine handle, minted at registration

	// Tick is the Step granularity Measure uses when advancing
	// simulated time. Values ≤ 0 default to 0.25 s.
	Tick float64
}

// NewSimEnvironment registers task with eng and returns its session
// environment. It returns an error for duplicate or nil tasks.
func NewSimEnvironment(eng *Engine, task *transfer.Task) (*SimEnvironment, error) {
	e := new(SimEnvironment)
	if err := initSimEnvironment(e, eng, task); err != nil {
		return nil, err
	}
	return e, nil
}

// Apply implements session.Env: it retunes the simulated transfer.
func (e *SimEnvironment) Apply(s transfer.Setting) error { return e.task.SetSetting(s) }

// Done implements session.Env.
func (e *SimEnvironment) Done() bool { return e.task.Done() }

// Setting returns the task's current setting (the session loop stamps
// it on Join events).
func (e *SimEnvironment) Setting() transfer.Setting { return e.task.Setting() }

// BeginWindow implements session.WindowEnv: it restarts the task's
// measurement window.
func (e *SimEnvironment) BeginWindow() { e.eng.beginWindowOf(e.h) }

// TakeSample implements session.WindowEnv: it closes the measurement
// window and returns the observed sample.
func (e *SimEnvironment) TakeSample() (transfer.Sample, error) {
	return e.eng.takeSampleOf(e.h)
}

// Clock implements session.ClockSource: the environment's time base is
// the engine's simulated clock.
func (e *SimEnvironment) Clock() session.Clock { return engineClock{e.eng} }

// Measure implements session.Environment on simulated time: it opens a
// fresh window, advances the shared engine by d (cut short if the
// transfer drains), and returns the observed sample. Only one session
// may drive the engine this way; orchestrating several sessions is the
// Scheduler's job.
func (e *SimEnvironment) Measure(d time.Duration) (transfer.Sample, error) {
	if d <= 0 {
		return transfer.Sample{}, fmt.Errorf("testbed: Measure(%v) must be positive", d)
	}
	tick := e.Tick
	if tick <= 0 {
		tick = 0.25
	}
	e.BeginWindow()
	target := e.eng.Now() + d.Seconds()
	for e.eng.Now() < target && !e.task.Done() {
		if rem := target - e.eng.Now(); rem < tick {
			e.eng.Step(rem)
			continue
		}
		// Full ticks run as one macro-step; RunTicks returns at any
		// file-count event, so the done check stays per-event accurate.
		// Only whole ticks are counted — the trailing partial step is
		// taken by the branch above on a later iteration.
		u, k := e.eng.Now(), 0
		for target-u >= tick {
			u += tick
			k++
		}
		e.eng.RunTicks(k, tick)
	}
	return e.TakeSample()
}

// engineClock exposes an Engine's simulated time as a session.Clock.
type engineClock struct{ eng *Engine }

func (c engineClock) Now() float64 { return c.eng.Now() }
