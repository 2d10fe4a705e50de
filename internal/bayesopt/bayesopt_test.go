package bayesopt

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/fastrand"
	"repro/internal/optimizer"
	"repro/internal/utility"
)

func TestNewGPPanicsOnBadHyperparameters(t *testing.T) {
	cases := [][3]float64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 1, 1}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGP(%v) did not panic", c)
				}
			}()
			NewGP(c[0], c[1], c[2])
		}()
	}
}

func TestGPFitValidation(t *testing.T) {
	gp := NewGP(1, 1, 0.01)
	if err := gp.Fit(nil, nil); err == nil {
		t.Error("Fit with no data did not error")
	}
	if err := gp.Fit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("Fit with mismatched lengths did not error")
	}
	if gp.Fitted() {
		t.Error("failed fits should not mark the GP as fitted")
	}
}

func TestGPPredictBeforeFitPanics(t *testing.T) {
	gp := NewGP(1, 1, 0.01)
	defer func() {
		if recover() == nil {
			t.Error("Predict before Fit did not panic")
		}
	}()
	gp.Predict(1)
}

func TestGPInterpolatesSmoothFunction(t *testing.T) {
	gp := NewGP(2, 1, 1e-4)
	xs := []float64{0, 2, 4, 6, 8, 10}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Sin(x / 3)
	}
	if err := gp.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	// At training points the posterior mean must be close to the data.
	for i, x := range xs {
		mu, _ := gp.Predict(x)
		if math.Abs(mu-ys[i]) > 0.05 {
			t.Fatalf("Predict(%v) = %v, want ≈%v", x, mu, ys[i])
		}
	}
	// Between points, prediction should be plausible.
	mu, _ := gp.Predict(5)
	if math.Abs(mu-math.Sin(5.0/3)) > 0.15 {
		t.Fatalf("Predict(5) = %v, want ≈%v", mu, math.Sin(5.0/3))
	}
}

func TestGPUncertaintyGrowsAwayFromData(t *testing.T) {
	gp := NewGP(1.5, 1, 1e-4)
	if err := gp.Fit([]float64{5}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	_, sdNear := gp.Predict(5)
	_, sdFar := gp.Predict(15)
	if sdNear >= sdFar {
		t.Fatalf("sd near data (%v) should be below sd far away (%v)", sdNear, sdFar)
	}
}

func TestGPConstantTargets(t *testing.T) {
	gp := NewGP(1, 1, 0.01)
	if err := gp.Fit([]float64{1, 2, 3}, []float64{7, 7, 7}); err != nil {
		t.Fatal(err)
	}
	mu, sd := gp.Predict(2)
	if math.Abs(mu-7) > 0.5 {
		t.Fatalf("constant-target mean = %v, want ≈7", mu)
	}
	if math.IsNaN(sd) {
		t.Fatal("sd is NaN")
	}
}

// Property: GP posterior mean at a training point approaches the target
// as noise shrinks, for random smooth data.
func TestGPTrainingFitProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func() bool {
		n := 5 + rng.Intn(10)
		xs := make([]float64, n)
		ys := make([]float64, n)
		a, b := rng.NormFloat64(), rng.NormFloat64()
		for i := range xs {
			xs[i] = float64(i) * 2
			ys[i] = a*math.Sin(xs[i]/4) + b
		}
		gp := NewGP(3, 1, 1e-5)
		if err := gp.Fit(xs, ys); err != nil {
			return false
		}
		for i := range xs {
			mu, _ := gp.Predict(xs[i])
			if math.Abs(mu-ys[i]) > 0.1*(math.Abs(a)+1) {
				return false
			}
		}
		return true
	}
	for i := 0; i < 30; i++ {
		if !f() {
			t.Fatal("GP failed to fit random smooth data")
		}
	}
}

func TestAcquisitionNames(t *testing.T) {
	if (EI{}).Name() != "ei" || (PI{}).Name() != "pi" || (UCB{}).Name() != "ucb" {
		t.Fatal("wrong acquisition names")
	}
}

func TestEIProperties(t *testing.T) {
	a := EI{Xi: 0}
	// Mean far above best with no uncertainty → improvement itself.
	if got := a.Score(10, 0, 5); got != 5 {
		t.Fatalf("EI certain improvement = %v, want 5", got)
	}
	// Mean below best with no uncertainty → zero.
	if got := a.Score(1, 0, 5); got != 0 {
		t.Fatalf("EI certain non-improvement = %v, want 0", got)
	}
	// Uncertainty adds value even below best.
	if got := a.Score(4.9, 1, 5); got <= 0 {
		t.Fatalf("EI with uncertainty = %v, want > 0", got)
	}
	// EI grows with std at equal mean.
	if a.Score(5, 2, 5) <= a.Score(5, 1, 5) {
		t.Fatal("EI should increase with uncertainty")
	}
}

func TestPIProperties(t *testing.T) {
	a := PI{Xi: 0}
	if got := a.Score(10, 0, 5); got != 1 {
		t.Fatalf("PI certain improvement = %v, want 1", got)
	}
	if got := a.Score(1, 0, 5); got != 0 {
		t.Fatalf("PI certain non-improvement = %v, want 0", got)
	}
	if got := a.Score(5, 1, 5); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("PI at the boundary = %v, want 0.5", got)
	}
}

func TestUCBProperties(t *testing.T) {
	a := UCB{Kappa: 2}
	if got := a.Score(3, 1.5, 0); got != 6 {
		t.Fatalf("UCB = %v, want 6", got)
	}
}

func TestNewSearchPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0, 1) did not panic")
		}
	}()
	New(0, 1)
}

func TestHedgeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty portfolio did not panic")
			}
		}()
		NewHedge(nil, 0.5, rng)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero eta did not panic")
			}
		}()
		NewHedge(DefaultPortfolio(), 0, rng)
	}()
}

// driveBO runs the BO search against a deterministic utility oracle.
func driveBO(s *Search, util func(int) float64, steps int) []int {
	n := 2
	visited := make([]int, 0, steps)
	for i := 0; i < steps; i++ {
		n = s.Next(optimizer.Observation{N: n, Utility: util(n)})
		visited = append(visited, n)
	}
	return visited
}

func emulabUtility(perProc, capacity float64) func(n int) float64 {
	thr := utility.SaturatingThroughput(perProc, capacity)
	return func(n int) float64 {
		return utility.Nonlinear(n, thr(n)/float64(n), 0, utility.DefaultB, utility.DefaultK)
	}
}

func TestBOFindsOptimumQuickly(t *testing.T) {
	// Figure 7: BO converges to the optimum (48) within a handful of
	// samples after the random phase.
	util := emulabUtility(20.83e6, 1e9)
	s := New(100, 42)
	visited := driveBO(s, util, 40)
	// Count how many of the last 20 proposals are near the optimum.
	near := 0
	for _, v := range visited[20:] {
		if v >= 42 && v <= 56 {
			near++
		}
	}
	if near < 12 {
		t.Fatalf("only %d/20 late proposals near 48: %v", near, visited[20:])
	}
}

func TestBOFindsSmallOptimum(t *testing.T) {
	util := emulabUtility(10e6, 100e6) // optimum 10
	s := New(32, 7)
	visited := driveBO(s, util, 40)
	near := 0
	for _, v := range visited[20:] {
		if v >= 7 && v <= 14 {
			near++
		}
	}
	if near < 12 {
		t.Fatalf("only %d/20 late proposals near 10: %v", near, visited[20:])
	}
}

func TestBOKeepsExploringAfterConvergence(t *testing.T) {
	// The 20-observation window forces periodic exploration: late
	// proposals must not collapse onto a single value forever.
	util := emulabUtility(10e6, 100e6)
	s := New(32, 3)
	visited := driveBO(s, util, 80)
	tail := visited[40:]
	distinct := map[int]bool{}
	for _, v := range tail {
		distinct[v] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("BO stopped exploring: tail %v", tail)
	}
}

func TestBOWindowEviction(t *testing.T) {
	s := New(32, 1)
	util := emulabUtility(10e6, 100e6)
	driveBO(s, util, 50)
	xs, ys := s.Observations()
	if len(xs) != s.Window || len(ys) != s.Window {
		t.Fatalf("window size %d/%d, want %d", len(xs), len(ys), s.Window)
	}
}

func TestBOIgnoresNonFiniteUtilities(t *testing.T) {
	s := New(16, 1)
	s.Next(optimizer.Observation{N: 2, Utility: math.NaN()})
	s.Next(optimizer.Observation{N: 2, Utility: math.Inf(1)})
	xs, _ := s.Observations()
	if len(xs) != 0 {
		t.Fatalf("non-finite observations stored: %v", xs)
	}
}

func TestBODeterministicPerSeed(t *testing.T) {
	util := emulabUtility(10e6, 100e6)
	a := driveBO(New(32, 11), util, 30)
	b := driveBO(New(32, 11), util, 30)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at step %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestNewWithSourcesMatchesNew pins the delegation: New(maxN, seed)
// must stay bitwise equivalent to NewWithSources with math/rand
// sources seeded seed and seed+1, since the pinned experiments rely on
// that stream.
func TestNewWithSourcesMatchesNew(t *testing.T) {
	util := emulabUtility(10e6, 100e6)
	a := driveBO(New(16, 5), util, 50)
	b := driveBO(NewWithSources(16, rand.NewSource(5), rand.NewSource(6)), util, 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: New chose %d, NewWithSources %d", i, a[i], b[i])
		}
	}
}

// Property: BO proposals always stay in bounds for arbitrary bounded
// utility streams.
func TestBOBoundsProperty(t *testing.T) {
	f := func(utils []float64, maxN8 uint8) bool {
		maxN := int(maxN8%40) + 1
		s := New(maxN, 5)
		n := 1
		for _, u := range utils {
			if math.IsNaN(u) || math.IsInf(u, 0) {
				u = 0
			}
			n = s.Next(optimizer.Observation{N: n, Utility: u})
			if n < 1 || n > maxN {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBOCanProbeHighValuesEarly(t *testing.T) {
	// §4.5: BO's random phase can probe very high concurrency — the
	// behaviour that makes it aggressive against non-Falcon transfers.
	// With a full search space of 100, at least one early proposal
	// across seeds should exceed 40.
	util := emulabUtility(20.83e6, 1e9)
	sawHigh := false
	for seed := int64(0); seed < 10; seed++ {
		s := New(100, seed)
		visited := driveBO(s, util, 4)
		for _, v := range visited[:3] {
			if v > 40 {
				sawHigh = true
			}
		}
	}
	if !sawHigh {
		t.Fatal("random phase never probed high concurrency across 10 seeds")
	}
}

func TestHedgeGainsUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := NewHedge(DefaultPortfolio(), 0.5, rng)
	gp := NewGP(2, 1, 0.01)
	if err := gp.Fit([]float64{1, 5, 9}, []float64{1, 5, 2}); err != nil {
		t.Fatal(err)
	}
	h.Propose(gp, 1, 10, 5)
	if g := h.Gains(); len(g) != 4 {
		t.Fatalf("gains len = %d", len(g))
	}
	before := h.Gains()
	h.Propose(gp, 1, 10, 5)
	after := h.Gains()
	changed := false
	for i := range before {
		if before[i] != after[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("second Propose did not update gains")
	}
}

// TestSearchAllocationsIndependentOfCallCount pins the buffer
// reservation: every scratch buffer of a fresh searcher is sized to its
// window on first use, so running it through the fill of its window and
// five slides beyond allocates exactly as often as stopping after the
// first fit — nothing grows by one element per decision.
func TestSearchAllocationsIndependentOfCallCount(t *testing.T) {
	allocs := func(calls int) float64 {
		return testing.AllocsPerRun(20, func() {
			s := New(8, 42)
			n := 1
			for i := 0; i < calls; i++ {
				n = s.Next(optimizer.Observation{N: n, Utility: float64((i*7)%11) - 0.1*float64(n)})
			}
		})
	}
	first, full := allocs(4), allocs(25)
	if first != full {
		t.Errorf("fresh Search allocates %v times over 4 Next calls but %v over 25; want equal", first, full)
	}
}

// TestSearchFootprint bounds the bytes a fleet agent's searcher costs:
// built with 8-byte sources over [1, 8] and driven past a full window,
// it allocates at most searchFootprint bytes — its window, its
// window-sized Cholesky factors and kernel tables, the winner's
// weights and the portfolio's gains; per-call scratch is borrowed. The
// bound is the measured footprint (6 833 B) plus ≈10 %; per-agent
// scratch such as the 20×8 sweep block, or a 24-row factor per
// candidate, exceeds it.
func TestSearchFootprint(t *testing.T) {
	const searchFootprint = 7500
	const runs = 64
	drive := func(s *Search) {
		n := 1
		for i := 0; i < 25; i++ {
			n = s.Next(optimizer.Observation{N: n, Utility: float64((i*7)%11) - 0.1*float64(n)})
		}
	}
	// Drive one searcher first, so the shared scratch free list holds a
	// block whichever tests ran before: scratch is not the searcher's.
	drive(New(8, 1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := int64(0); r < runs; r++ {
		drive(NewWithSources(8, fastrand.New(r), fastrand.New(r+1)))
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("searcher footprint: %d bytes", got)
	if got > searchFootprint {
		t.Errorf("a searcher over [1, 8] driven past its window allocates %d bytes, over the %d-byte bound", got, searchFootprint)
	}
}

// sinkSearch keeps constructed searchers reachable, so the
// construction the footprint test measures cannot be optimised away.
var sinkSearch *Search

// TestSearchConstructionFootprint bounds what a searcher costs before
// its session decides: built with 8-byte sources over [1, 8], it
// allocates at most 800 B — the Search value, its two random
// generators and their sources. No window, factor, kernel table or
// portfolio gain exists yet (measured 624 B; a full GP value per
// length-scale candidate, or the window block, exceeds the bound).
func TestSearchConstructionFootprint(t *testing.T) {
	const constructionFootprint = 800
	const runs = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := int64(0); r < runs; r++ {
		sinkSearch = NewWithSources(8, fastrand.New(r), fastrand.New(r+1))
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("searcher construction: %d bytes", got)
	if got > constructionFootprint {
		t.Errorf("constructing a searcher over [1, 8] allocates %d bytes, over the %d-byte bound", got, constructionFootprint)
	}
}

// holdsNothing fails unless s holds no window, fit, factor, kernel
// table or portfolio gain.
func holdsNothing(t *testing.T, what string, s *Search) {
	t.Helper()
	if s.xs != nil || s.ys != nil || s.fitXs != nil || s.alpha != nil {
		t.Errorf("%s: holds a window or fit (caps %d, %d, %d, %d)", what, cap(s.xs), cap(s.ys), cap(s.fitXs), cap(s.alpha))
	}
	for c := range s.cands {
		if g := &s.cands[c]; g.tab != nil || g.chol.Size() != 0 {
			t.Errorf("%s: candidate %d holds a kernel table (cap %d) or a %d-row factor", what, c, cap(g.tab), g.chol.Size())
		}
	}
	if s.hedge.gains != nil || s.hedge.lastNominees != nil {
		t.Errorf("%s: holds portfolio gains", what)
	}
	if s.win >= 0 {
		t.Errorf("%s: selected candidate %d", what, s.win)
	}
}

// TestSearchReservesOnFirstObservation: a fresh searcher holds no
// block, and its first Next allocates exactly one, sized for its
// Window and MaxN, which later decisions reuse.
func TestSearchReservesOnFirstObservation(t *testing.T) {
	holdsNothing(t, "fresh searcher", New(8, 1))

	const runs = 20
	fresh := make([]*Search, runs+1) // AllocsPerRun adds a warm-up run
	for i := range fresh {
		fresh[i] = NewWithSources(8, fastrand.New(int64(i)), fastrand.New(int64(i)+1))
	}
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		fresh[k].Next(optimizer.Observation{N: 2, Utility: 1})
		k++
	})
	if allocs != 1 {
		t.Errorf("a fresh searcher's first Next allocates %v times, want 1 (the window block)", allocs)
	}
	s := fresh[0]
	if w := s.Window; cap(s.xs) != w+1 || cap(s.ys) != w+1 || cap(s.fitXs) != w || cap(s.alpha) != w {
		t.Errorf("window block caps %d, %d, %d, %d; want %d, %d, %d, %d", cap(s.xs), cap(s.ys), cap(s.fitXs), cap(s.alpha), w+1, w+1, w, w)
	}
	for c := range s.cands {
		if got := cap(s.cands[c].tab); got != s.MaxN {
			t.Errorf("candidate %d kernel table cap %d, want MaxN %d", c, got, s.MaxN)
		}
	}
}

// TestReleasedSearchPanics drives a searcher past its window, releases
// it, and checks that it holds nothing, reports no posterior, survives
// a second Release and panics on Next rather than start a fresh
// window.
func TestReleasedSearchPanics(t *testing.T) {
	s := NewWithSources(8, fastrand.New(3), fastrand.New(4))
	n := 1
	for i := 0; i < 25; i++ {
		n = s.Next(optimizer.Observation{N: n, Utility: float64((i*7)%11) - 0.1*float64(n)})
	}
	means, stds := make([]float64, 8), make([]float64, 8)
	if !s.PosteriorSweep(means, stds) {
		t.Fatal("no posterior after 25 decisions")
	}
	s.Release()
	holdsNothing(t, "released searcher", s)
	if s.PosteriorSweep(means, stds) {
		t.Error("a released searcher still reports a posterior")
	}
	s.Release()
	if !panics(func() { s.Next(optimizer.Observation{N: n, Utility: 1}) }) {
		t.Fatal("Next after Release did not panic")
	}
	holdsNothing(t, "released searcher after Next", s)
}
