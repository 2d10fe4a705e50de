package session

import "fmt"

// Advance moves the clock forward by dt seconds. It panics on negative
// dt — virtual time never runs backwards.
func (c *VirtualClock) Advance(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("session: VirtualClock.Advance(%v) negative", dt))
	}
	c.now += dt
}

// Set jumps the clock to t. It panics when t is in the past.
func (c *VirtualClock) Set(t float64) {
	if t < c.now {
		panic(fmt.Sprintf("session: VirtualClock.Set(%v) before now %v", t, c.now))
	}
	c.now = t
}

// ID returns the session's event identifier.
func (s *Session) ID() string { return s.cfg.ID }

// Epochs returns the number of completed decision epochs.
func (s *Session) Epochs() int { return s.epochs }
