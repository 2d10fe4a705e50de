package session

import "time"

// Clock is the time base a session runtime runs on: seconds since the
// run began. The simulated testbeds expose their virtual engine time
// through it; real transfers use a WallClock. Sessions themselves never
// read a clock directly — drivers stamp every Tick/Observe call — so
// the same decision flow runs unchanged on either time base.
type Clock interface {
	// Now returns the current time in seconds.
	Now() float64
}

// ClockSource is implemented by environments that carry their own time
// base (e.g. testbed.SimEnvironment, whose time is the engine's
// simulated clock). Run uses it instead of a wall clock, so event
// timestamps line up with the environment's notion of time.
type ClockSource interface {
	Clock() Clock
}

// WallClock reports real elapsed time since its creation.
type WallClock struct {
	start time.Time
}

// NewWallClock returns a wall clock anchored at the current instant.
func NewWallClock() *WallClock { return &WallClock{start: time.Now()} }

// Now returns the seconds elapsed since the clock was created.
func (c *WallClock) Now() float64 { return time.Since(c.start).Seconds() }

// VirtualClock is a manually advanced clock for simulations and tests.
// The zero value starts at t=0.
type VirtualClock struct {
	now float64
}

// Now returns the current virtual time in seconds.
func (c *VirtualClock) Now() float64 { return c.now }
