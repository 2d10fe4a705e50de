package optimizer

import (
	"fmt"
	"math"
	"math/rand"
)

// DirectSearch implements a compass/pattern direct search in the spirit
// of Balaprakash et al. [14] (§5 related work): evaluate the pattern
// points around the incumbent with a step size that expands on success
// and contracts on failure, using only utility comparisons — no
// gradients. It converges without tuning but slower than GD/BO, which
// is why the paper positions online convex methods above it.
type DirectSearch struct {
	// MaxN bounds the search space (inclusive).
	MaxN int
	// InitialStep is the opening pattern radius. Default 4.
	InitialStep int

	center  int
	bestU   float64
	hasBest bool
	step    int
	side    int // -1: just probed left; +1: just probed right; 0: at center
	started bool
}

var _ Search = (*DirectSearch)(nil)

// NewDirectSearch returns a direct searcher over [1, maxN].
// It panics if maxN < 1.
func NewDirectSearch(maxN int) *DirectSearch {
	if maxN < 1 {
		panic(fmt.Sprintf("optimizer: DirectSearch maxN %d must be ≥ 1", maxN))
	}
	return &DirectSearch{MaxN: maxN, InitialStep: 4, center: 2, step: 4, side: -1}
}

// Name implements Search.
func (d *DirectSearch) Name() string { return "direct-search" }

// Next implements Search.
func (d *DirectSearch) Next(obs Observation) int {
	if !d.started {
		d.started = true
		d.bestU = obs.Utility
		d.hasBest = true
		d.center = obs.N
		d.side = -1
		return clampInt(d.center-d.step, 1, d.MaxN)
	}
	if obs.Utility > d.bestU {
		// Success: move the incumbent to the probed point and expand.
		d.center = obs.N
		d.bestU = obs.Utility
		d.step *= 2
		if d.step > d.MaxN/2 {
			d.step = d.MaxN / 2
		}
		if d.step < 1 {
			d.step = 1
		}
		d.side = -1
		return clampInt(d.center-d.step, 1, d.MaxN)
	}
	// Failure at this pattern point: try the other side, then contract.
	if d.side == -1 {
		d.side = 1
		return clampInt(d.center+d.step, 1, d.MaxN)
	}
	d.side = -1
	if d.step > 1 {
		d.step /= 2
	} else {
		// Fully contracted: keep polling ±1 forever — the continuous
		// re-exploration every online method needs. Refresh the
		// incumbent utility so drifting conditions do not pin us to a
		// stale best.
		d.bestU = math.Max(d.bestU*0.98, obs.Utility)
	}
	return clampInt(d.center-d.step, 1, d.MaxN)
}

// SPSA implements simultaneous-perturbation stochastic approximation in
// the spirit of ProbData [48] (§5): perturb the setting by ±c, estimate
// the gradient from the two noisy evaluations, and take a diminishing
// a/(k+A) step. The diminishing gains give asymptotic convergence but
// need many iterations — the paper's critique that ProbData "takes
// several hours to converge" shows up here as a much longer tail than
// GD/BO.
type SPSA struct {
	// MaxN bounds the search space (inclusive).
	MaxN int
	// A0 is the numerator of the step gain a_k = A0/(k+Stability).
	// Default 40.
	A0 float64
	// Stability is SPSA's A parameter. Default 10.
	Stability float64
	// C is the perturbation radius. Default 2.
	C int

	rng     *rand.Rand
	center  float64
	k       int
	delta   int // ±1 direction of the current perturbation
	phase   int // 0: need minus probe; 1: need plus probe
	uMinus  float64
	started bool
}

var _ Search = (*SPSA)(nil)

// NewSPSA returns an SPSA searcher over [1, maxN] with a deterministic
// seed. It panics if maxN < 1.
func NewSPSA(maxN int, seed int64) *SPSA {
	if maxN < 1 {
		panic(fmt.Sprintf("optimizer: SPSA maxN %d must be ≥ 1", maxN))
	}
	return &SPSA{
		MaxN: maxN, A0: 40, Stability: 10, C: 2,
		rng: rand.New(rand.NewSource(seed)), center: 2,
	}
}

// Name implements Search.
func (s *SPSA) Name() string { return "spsa" }

// minus and plus are the current perturbed evaluation points.
func (s *SPSA) minus() int {
	return clampInt(int(math.Round(s.center))-s.delta*s.C, 1, s.MaxN)
}
func (s *SPSA) plus() int {
	return clampInt(int(math.Round(s.center))+s.delta*s.C, 1, s.MaxN)
}

// Next implements Search.
func (s *SPSA) Next(obs Observation) int {
	if !s.started {
		s.started = true
		s.newDirection()
		s.phase = 1
		return s.minus()
	}
	if s.phase == 1 {
		s.uMinus = obs.Utility
		s.phase = 2
		return s.plus()
	}
	// Gradient estimate from the perturbation pair.
	uPlus := obs.Utility
	span := float64(s.plus() - s.minus())
	if span == 0 {
		span = 1
	}
	scale := math.Max(math.Abs(s.uMinus), 1e-12)
	ghat := (uPlus - s.uMinus) / span / scale // relative slope
	s.k++
	ak := s.A0 / (float64(s.k) + s.Stability)
	s.center += ak * ghat * s.center
	s.center = math.Max(1, math.Min(float64(s.MaxN), s.center))
	s.newDirection()
	s.phase = 1
	return s.minus()
}

func (s *SPSA) newDirection() {
	if s.rng.Intn(2) == 0 {
		s.delta = -1
	} else {
		s.delta = 1
	}
}
