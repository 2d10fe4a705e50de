package testbed

import "repro/internal/transfer"

// SimEnvironment adapts one task on an Engine to session.WindowEnv,
// the contract of a transfer measured in cooperative windows on
// virtual time: the Scheduler steps the engine, and the session opens
// and closes its measurement windows. Constructing one
// (initSimEnvironment) registers the task with the engine.
type SimEnvironment struct {
	eng  *Engine
	task *transfer.Task
	h    int32 // the task's engine handle, minted at registration
}

// Apply implements session.Env: it retunes the simulated transfer.
func (e *SimEnvironment) Apply(s transfer.Setting) error { return e.task.SetSetting(s) }

// Done implements session.Env.
func (e *SimEnvironment) Done() bool { return e.task.Done() }

// BeginWindow implements session.WindowEnv: it restarts the task's
// measurement window.
func (e *SimEnvironment) BeginWindow() { e.eng.beginWindowOf(e.h) }

// TakeSample implements session.WindowEnv: it closes the measurement
// window and returns the observed sample.
func (e *SimEnvironment) TakeSample() (transfer.Sample, error) {
	return e.eng.takeSampleOf(e.h)
}
