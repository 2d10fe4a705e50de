// Package optimizer implements Falcon's online search algorithms
// (§3.2): Hill Climbing and Online Gradient Descent for single-
// parameter (concurrency) tuning, and Conjugate Gradient Descent for
// the multi-parameter extension of §4.4. Bayesian Optimization lives in
// the sibling package bayesopt and satisfies the same Search interface.
//
// A Search is a sequential decision process: every call to Next
// delivers the utility observed for the previously proposed setting and
// returns the next setting to evaluate with a sample transfer. All
// searches keep exploring after convergence — the optimum drifts with
// background traffic and competing transfers, so the paper configures
// every algorithm to re-probe the neighbourhood indefinitely.
package optimizer

import (
	"fmt"
	"math"
)

// Observation is the outcome of evaluating one concurrency value.
type Observation struct {
	// N is the concurrency that was active during the sample transfer.
	N int
	// Utility is the utility-function value computed from the sample.
	Utility float64
}

// Search proposes concurrency values, one per sample transfer.
type Search interface {
	// Next consumes the latest observation and returns the concurrency
	// to evaluate next, always within the search bounds.
	Next(obs Observation) int
	// Name identifies the algorithm in reports.
	Name() string
}

// Bounds clamps v into [lo, hi].
func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// HillClimbing is the fixed-step-size sequential search of §3.2: move
// one concurrency unit at a time in the current direction while the
// utility keeps improving by more than Threshold; reverse otherwise.
// Its 1-unit step is why convergence takes ≈7× longer than Gradient
// Descent when the optimum is far from the start (Figure 7).
type HillClimbing struct {
	// MaxN bounds the search space (inclusive). Required ≥ 1.
	MaxN int
	// Threshold is the relative utility improvement required to keep
	// the current direction. The paper quotes 3 % as its default, but
	// with Eq 4 the marginal relative gain of one more concurrent
	// transfer is ≈ 1/n − ln K, which falls below 3 % long before a
	// distant optimum (n ≈ 20 for K = 1.02) and would stall the climb;
	// we therefore treat the threshold purely as a measurement-noise
	// guard and default it to 0 (reverse on any non-improvement).
	Threshold float64

	cur, dir int
	prevU    float64
	started  bool
}

// NewHillClimbing returns a climber over [1, maxN].
// It panics if maxN < 1.
func NewHillClimbing(maxN int) *HillClimbing {
	if maxN < 1 {
		panic(fmt.Sprintf("optimizer: HillClimbing maxN %d must be ≥ 1", maxN))
	}
	return &HillClimbing{MaxN: maxN, Threshold: 0, cur: 1, dir: 1}
}

// Name implements Search.
func (h *HillClimbing) Name() string { return "hill-climbing" }

// Next implements Search.
func (h *HillClimbing) Next(obs Observation) int {
	if !h.started {
		h.started = true
		h.prevU = obs.Utility
		h.cur = clampInt(obs.N+h.dir, 1, h.MaxN)
		return h.cur
	}
	denom := math.Abs(h.prevU)
	if denom < 1e-12 {
		denom = 1e-12
	}
	gamma := (obs.Utility - h.prevU) / denom
	if gamma <= h.Threshold {
		// Improvement stalled or regressed: reverse direction. The
		// climber keeps oscillating around the optimum, which doubles
		// as the periodic re-exploration the paper requires.
		h.dir = -h.dir
	}
	h.prevU = obs.Utility
	next := clampInt(obs.N+h.dir, 1, h.MaxN)
	if next == obs.N { // pinned at a bound: turn around
		h.dir = -h.dir
		next = clampInt(obs.N+h.dir, 1, h.MaxN)
	}
	h.cur = next
	return next
}

// GradientDescent is the online gradient method of §3.2 (ascent on the
// concave utility; the paper converts to a cost by negation). Each
// epoch evaluates n−ε and n+ε with sample transfers (ε=1), estimates
// the relative slope, and moves by θ·Δ where the confidence factor θ
// grows by one for every consecutive epoch moving in the same
// direction and resets on a direction change.
type GradientDescent struct {
	// MaxN bounds the search space (inclusive).
	MaxN int
	// Epsilon is the probe offset (the paper uses 1).
	Epsilon int
	// Gain scales the step Δ = Gain·n·relativeSlope. Default 3.
	Gain float64
	// MaxStep bounds a single move, guarding against sampling-error
	// jumps. Default 8.
	MaxStep float64
	// Smoothing is the EWMA factor applied to the relative-slope
	// estimate in (0, 1]; 1 disables smoothing. Default 0.5. Competing
	// transfers perturb throughput between the two probe samples of an
	// epoch, so raw slope estimates carry drift contamination that
	// smoothing (together with probe-order alternation) averages out.
	Smoothing float64

	center   int
	theta    float64
	lastDir  int
	phase    int // 0: need first probe result; 1: need second probe result
	firstU   float64
	lowFirst bool // probe order this epoch (alternates to cancel drift)
	relEWMA  float64
	hasEWMA  bool
	started  bool
}

// NewGradientDescent returns a GD searcher over [1, maxN] starting at
// the paper's initial concurrency of 2. It panics if maxN < 1.
func NewGradientDescent(maxN int) *GradientDescent {
	if maxN < 1 {
		panic(fmt.Sprintf("optimizer: GradientDescent maxN %d must be ≥ 1", maxN))
	}
	return &GradientDescent{MaxN: maxN, Epsilon: 1, Gain: 3, MaxStep: 8, Smoothing: 0.5, center: 2, theta: 1, lowFirst: true}
}

// Name implements Search.
func (g *GradientDescent) Name() string { return "gradient-descent" }

// low and high return the probe points around the current center,
// degenerating gracefully at the bounds.
func (g *GradientDescent) low() int  { return clampInt(g.center-g.Epsilon, 1, g.MaxN) }
func (g *GradientDescent) high() int { return clampInt(g.center+g.Epsilon, 1, g.MaxN) }

// firstProbe and secondProbe return this epoch's probe points in order.
func (g *GradientDescent) firstProbe() int {
	if g.lowFirst {
		return g.low()
	}
	return g.high()
}

func (g *GradientDescent) secondProbe() int {
	if g.lowFirst {
		return g.high()
	}
	return g.low()
}

// Next implements Search.
func (g *GradientDescent) Next(obs Observation) int {
	if !g.started {
		// The very first observation is the initial setting's sample;
		// begin the first epoch with its first probe.
		g.started = true
		g.phase = 1
		return g.firstProbe()
	}
	switch g.phase {
	case 1: // obs is the first probe; ask for the second
		g.firstU = obs.Utility
		g.phase = 2
		return g.secondProbe()
	default: // obs is the second probe; move the center
		uLow, uHigh := g.firstU, obs.Utility
		if !g.lowFirst {
			uLow, uHigh = uHigh, uLow
		}
		denom := math.Abs(uLow)
		if denom < 1e-12 {
			denom = 1e-12
		}
		span := float64(g.high() - g.low())
		if span == 0 {
			span = 1
		}
		rel := (uHigh - uLow) / denom / span // relative slope per unit n

		// Smooth the slope: background drift between the two probe
		// samples (competing transfers adjusting their settings)
		// contaminates individual estimates; alternating the probe
		// order flips the contamination's sign so the EWMA cancels it.
		alpha := g.Smoothing
		if alpha <= 0 || alpha > 1 {
			alpha = 1
		}
		if g.hasEWMA {
			g.relEWMA = alpha*rel + (1-alpha)*g.relEWMA
		} else {
			g.relEWMA = rel
			g.hasEWMA = true
		}
		g.lowFirst = !g.lowFirst

		delta := g.Gain * float64(g.center) * g.relEWMA
		dir := 0
		if delta > 0 {
			dir = 1
		} else if delta < 0 {
			dir = -1
		}
		if dir != 0 && dir == g.lastDir {
			g.theta++
		} else {
			g.theta = 1
		}
		g.lastDir = dir
		// The confidence factor accelerates the move, but the final
		// step stays bounded by MaxStep: unbounded θ·Δ slams the
		// search between the bounds once competing transfers perturb
		// the slope estimates.
		step := g.theta * delta
		if step > g.MaxStep {
			step = g.MaxStep
		}
		if step < -g.MaxStep {
			step = -g.MaxStep
		}
		move := int(math.Round(step))
		if move == 0 && dir != 0 {
			move = dir // always react to a definite slope
		}
		g.center = clampInt(g.center+move, 1, g.MaxN)
		g.phase = 1
		return g.firstProbe()
	}
}

// VecObservation is the outcome of evaluating one multi-parameter
// setting.
type VecObservation struct {
	// X is the setting that was active, e.g. [concurrency,
	// parallelism, pipelining].
	X []int
	// Utility is the Eq 7 utility computed from the sample.
	Utility float64
}

// VecSearch proposes multi-parameter settings, one per sample transfer.
type VecSearch interface {
	NextVec(obs VecObservation) []int
	Name() string
}

// ConjugateGD is the multi-parameter searcher of §4.4. Each epoch
// probes ±1 along every dimension (2·dims sample transfers — the reason
// multi-parameter optimization converges up to 3× slower, as the paper
// reports) and assembles a finite-difference gradient. A Polak–Ribière
// conjugate direction supplies the sign of movement per dimension,
// while each dimension keeps its own adaptive step size that grows
// while its direction stays consistent and resets on a flip — the
// multi-dimensional analogue of GradientDescent's confidence factor θ.
type ConjugateGD struct {
	// Lo and Hi bound each dimension (inclusive).
	Lo, Hi []int
	// StepGrowth multiplies a dimension's step while its direction is
	// stable. Default 1.5.
	StepGrowth float64
	// MaxStep bounds per-dimension movement per epoch. Default 8.
	MaxStep float64

	center   []int
	grad     []float64
	prevGrad []float64
	dirVec   []float64
	stepSize []float64
	lastSign []int

	dim     int // dimension currently being probed
	side    int // 0: need low probe, 1: need high probe
	uLow    float64
	started bool
}

// NewConjugateGD returns a conjugate-gradient searcher with the given
// per-dimension bounds, starting at the low bounds plus one. It panics
// on malformed bounds.
func NewConjugateGD(lo, hi []int) *ConjugateGD {
	if len(lo) == 0 || len(lo) != len(hi) {
		panic("optimizer: ConjugateGD bounds length mismatch")
	}
	center := make([]int, len(lo))
	steps := make([]float64, len(lo))
	for i := range lo {
		if lo[i] < 1 || hi[i] < lo[i] {
			panic(fmt.Sprintf("optimizer: ConjugateGD bad bounds dim %d: [%d, %d]", i, lo[i], hi[i]))
		}
		center[i] = clampInt(lo[i]+1, lo[i], hi[i])
		steps[i] = 1
	}
	return &ConjugateGD{
		Lo: append([]int(nil), lo...), Hi: append([]int(nil), hi...),
		StepGrowth: 1.5, MaxStep: 8,
		center:   center,
		grad:     make([]float64, len(lo)),
		dirVec:   make([]float64, len(lo)),
		stepSize: steps,
		lastSign: make([]int, len(lo)),
	}
}

// Name implements VecSearch.
func (c *ConjugateGD) Name() string { return "conjugate-gd" }

// probe returns the center shifted by delta along dim, clamped.
func (c *ConjugateGD) probe(dim, delta int) []int {
	x := append([]int(nil), c.center...)
	x[dim] = clampInt(x[dim]+delta, c.Lo[dim], c.Hi[dim])
	return x
}

// NextVec implements VecSearch.
func (c *ConjugateGD) NextVec(obs VecObservation) []int {
	if !c.started {
		c.started = true
		c.dim, c.side = 0, 0
		return c.probe(0, -1)
	}
	if c.side == 0 {
		c.uLow = obs.Utility
		c.side = 1
		return c.probe(c.dim, +1)
	}
	// High probe arrived: finish this dimension's slope.
	uHigh := obs.Utility
	denom := math.Abs(c.uLow)
	if denom < 1e-12 {
		denom = 1e-12
	}
	span := float64(c.probe(c.dim, +1)[c.dim] - c.probe(c.dim, -1)[c.dim])
	if span == 0 {
		span = 1
	}
	c.grad[c.dim] = (uHigh - c.uLow) / denom / span
	c.dim++
	c.side = 0
	if c.dim < len(c.center) {
		return c.probe(c.dim, -1)
	}

	// Full gradient assembled: Polak–Ribière conjugate direction.
	beta := 0.0
	if c.prevGrad != nil {
		num, den := 0.0, 0.0
		for i := range c.grad {
			num += c.grad[i] * (c.grad[i] - c.prevGrad[i])
			den += c.prevGrad[i] * c.prevGrad[i]
		}
		if den > 1e-18 {
			beta = num / den
		}
		if beta < 0 {
			beta = 0 // PR+ restart
		}
	}
	for i := range c.grad {
		c.dirVec[i] = c.grad[i] + beta*c.dirVec[i]
	}
	// Per-dimension adaptive move: the conjugate direction supplies the
	// sign, the step size adapts to sign stability.
	const deadband = 1e-4 // slopes below this are "flat": hold position
	for i := range c.center {
		sign := 0
		if c.dirVec[i] > deadband {
			sign = 1
		} else if c.dirVec[i] < -deadband {
			sign = -1
		}
		if sign == 0 {
			c.stepSize[i] = 1
			c.lastSign[i] = 0
			continue
		}
		if sign == c.lastSign[i] {
			c.stepSize[i] *= c.StepGrowth
			if c.stepSize[i] > c.MaxStep {
				c.stepSize[i] = c.MaxStep
			}
		} else {
			c.stepSize[i] = 1
		}
		c.lastSign[i] = sign
		mv := sign * int(math.Round(c.stepSize[i]))
		c.center[i] = clampInt(c.center[i]+mv, c.Lo[i], c.Hi[i])
	}
	if c.prevGrad == nil {
		c.prevGrad = make([]float64, len(c.grad))
	}
	copy(c.prevGrad, c.grad)

	// Start the next epoch.
	c.dim, c.side = 0, 0
	return c.probe(0, -1)
}
