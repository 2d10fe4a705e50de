package session

import "time"

// WallClock is the time base Run stamps a real transfer's events with:
// seconds since the run began. Sessions themselves never read a clock —
// drivers stamp every Tick/Observe call — so the same decision flow
// runs on the Scheduler's virtual time and on the wall.
type WallClock struct {
	start time.Time
}

// NewWallClock returns a wall clock anchored at the current instant.
func NewWallClock() *WallClock { return &WallClock{start: time.Now()} }

// Now returns the seconds elapsed since the clock was created.
func (c *WallClock) Now() float64 { return time.Since(c.start).Seconds() }
