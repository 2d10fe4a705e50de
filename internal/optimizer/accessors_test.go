package optimizer

import "math"

// Center returns the searcher's current concurrency estimate (the
// midpoint of the probe pair).
func (g *GradientDescent) Center() int { return g.center }

// Center returns the current multi-parameter estimate.
func (c *ConjugateGD) Center() []int { return append([]int(nil), c.center...) }

// Center returns the incumbent.
func (d *DirectSearch) Center() int { return d.center }

// Center returns the current (continuous) iterate, rounded.
func (s *SPSA) Center() int { return int(math.Round(s.center)) }
