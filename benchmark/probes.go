package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/bayesopt"
	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/netsim"
	"repro/internal/optimizer"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/testbed"
	"repro/internal/trace"
	"repro/internal/transfer"
	"repro/internal/utility"
	"repro/internal/webservice"
)

// Replay probes call a buried layer's public functions on state shaped
// like the workloads, because from outside the program a real pass
// cannot be cut at those layers. Each probe runs probeBatches batches of
// about probeBatch (half a second in all) and reports the median batch,
// so one stolen time slice does not set the figure.
const (
	probeBatches = 5
	probeBatch   = 100 * time.Millisecond
)

// prober times operations in batches of about its duration.
type prober time.Duration

// time measures op, which must perform n operations, and returns the
// median nanoseconds and the mean heap allocations per operation.
func (pb prober) time(op func(n int)) (nsPerOp, allocsPerOp float64) {
	batch := time.Duration(pb)
	n := 1
	for {
		t0 := time.Now()
		op(n)
		d := time.Since(t0)
		if d >= batch/2 || n >= 1<<30 {
			break
		}
		if d < time.Microsecond {
			d = time.Microsecond
		}
		next := int(float64(n) * float64(batch) / float64(d))
		if next > 100*n {
			next = 100 * n
		}
		if next <= n {
			next = n + 1
		}
		n = next
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	per := make([]float64, probeBatches)
	for i := range per {
		t0 := time.Now()
		op(n)
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	runtime.ReadMemStats(&m1)
	return median(per), float64(m1.Mallocs-m0.Mallocs) / float64(probeBatches*n)
}

// lcg is a tiny deterministic noise source for probe inputs.
type lcg uint64

func (l *lcg) next() float64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return float64(*l>>11) / (1 << 53)
}

// probeUtility is a concave utility with its peak inside [1, maxN] and
// a little noise, like the one agents climb.
func probeUtility(n, maxN int, noise *lcg) float64 {
	peak := 0.6 * float64(maxN)
	d := (float64(n) - peak) / float64(maxN)
	return 1 - d*d + 0.01*(noise.next()-0.5)
}

// fleetTasks adds n never-ending fleet tasks to eng.
func fleetTasks(eng *testbed.Engine, n int) error {
	ds := dataset.Uniform("fleet", 20000, 1e9)
	for i := 0; i < n; i++ {
		task, err := transfer.NewTask(fmt.Sprintf("t%05d", i), ds,
			transfer.Setting{Concurrency: 1 + i%8, Parallelism: 1, Pipelining: 1})
		if err != nil {
			return err
		}
		if err := eng.AddTask(task); err != nil {
			return err
		}
	}
	return nil
}

// probeSessions is the fleet size the fleet-shaped probes replay.
const probeSessions = 10000

// runProbes runs every replay probe and returns its per-layer metrics.
func runProbes(seed int64, batch time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range []func(prober, int64, map[string]float64) error{
		probeScenario, probeNetsim, probeEngine, probeTrace, probeBayesopt, probeLinalg, probeSearchers, probeHandlers,
	} {
		if err := p(prober(batch), seed, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func probeScenario(pb prober, seed int64, out map[string]float64) error {
	docs := map[string][]byte{
		"fleet": mustJSON(genFleetSteady(seed, probeSessions, 120)),
		"heavy": mustJSON(genHeavy(rand.New(rand.NewSource(seed)), "probe-heavy", 60, 600)),
	}
	for name, raw := range docs {
		doc, err := scenario.Parse(raw)
		if err != nil {
			return fmt.Errorf("probe scenario %s: %w", name, err)
		}
		var perr error
		ns, _ := pb.time(func(n int) {
			for i := 0; i < n; i++ {
				if _, err := scenario.Parse(raw); err != nil {
					perr = err
				}
			}
		})
		out["scenario.parse_us."+name] = ns / 1e3
		ns, _ = pb.time(func(n int) {
			for i := 0; i < n; i++ {
				if _, err := doc.Build(); err != nil {
					perr = err
				}
			}
		})
		out["scenario.build_ms."+name] = ns / 1e6
		ns, _ = pb.time(func(n int) {
			for i := 0; i < n; i++ {
				if _, err := doc.Hash(); err != nil {
					perr = err
				}
			}
		})
		out["scenario.hash_us."+name] = ns / 1e3
		if perr != nil {
			return fmt.Errorf("probe scenario %s: %w", name, perr)
		}
	}
	return nil
}

func probeNetsim(pb prober, _ int64, out map[string]float64) error {
	cfg, _ := scenario.PresetConfig("fleet")
	path := []string{"src-store", "src-cpu", "src-nic", "link", "dst-nic", "dst-cpu", "dst-store"}
	build := func() (*netsim.Network, []netsim.Demand) {
		net := netsim.New()
		net.AddResource(netsim.Resource{ID: "src-store", Kind: netsim.Storage, Capacity: cfg.SrcStore.AggregateCap})
		net.AddResource(netsim.Resource{ID: "dst-store", Kind: netsim.Storage, Capacity: cfg.DstStore.AggregateCap})
		net.AddResource(netsim.Resource{ID: "src-nic", Kind: netsim.NIC, Capacity: cfg.SrcHost.NICCap})
		net.AddResource(netsim.Resource{ID: "dst-nic", Kind: netsim.NIC, Capacity: cfg.DstHost.NICCap})
		net.AddResource(netsim.Resource{ID: "src-cpu", Kind: netsim.CPU, Capacity: cfg.SrcHost.CPUCap})
		net.AddResource(netsim.Resource{ID: "dst-cpu", Kind: netsim.CPU, Capacity: cfg.DstHost.CPUCap})
		net.AddResource(netsim.Resource{ID: "link", Kind: netsim.Link, Capacity: cfg.LinkCapacity})
		demands := make([]netsim.Demand, probeSessions)
		for i := range demands {
			demands[i] = netsim.Demand{
				FlowID: fmt.Sprintf("t%05d", i), Resources: path,
				Cap: cfg.SrcStore.PerProcCap, RTT: cfg.RTT, Weight: 1 + i%8,
			}
		}
		return net, demands
	}
	var alloc netsim.DenseAllocation
	var perr error
	allocate := func(net *netsim.Network, demands []netsim.Demand) {
		if err := net.AllocateDense(&alloc, demands); err != nil {
			perr = err
		}
	}

	net, demands := build()
	ns, allocs := pb.time(func(n int) {
		for i := 0; i < n; i++ {
			allocate(net, demands)
		}
	})
	out["netsim.allocate.steady_ns"] = ns
	out["netsim.allocate.allocs"] = allocs

	// One session in a hundred retunes its concurrency between calls.
	net, demands = build()
	call := 0
	ns, _ = pb.time(func(n int) {
		for i := 0; i < n; i++ {
			for j := 0; j < len(demands)/100; j++ {
				d := &demands[(call*len(demands)/100+j*97)%len(demands)]
				d.Weight = 1 + d.Weight%8
			}
			call++
			allocate(net, demands)
		}
	})
	out["netsim.allocate.retune_ns"] = ns

	// The link's capacity changes between calls, as under a wave.
	net, demands = build()
	ns, _ = pb.time(func(n int) {
		for i := 0; i < n; i++ {
			call++
			net.SetCapacity("link", cfg.LinkCapacity*(0.5+0.5*float64(call%2)))
			allocate(net, demands)
		}
	})
	out["netsim.allocate.mutated_ns"] = ns
	return perr
}

func probeEngine(pb prober, seed int64, out map[string]float64) error {
	cfg, _ := scenario.PresetConfig("fleet")
	eng, err := testbed.NewEngine(cfg, seed)
	if err != nil {
		return err
	}
	if err := fleetTasks(eng, probeSessions); err != nil {
		return err
	}
	ns, _ := pb.time(func(n int) {
		for i := 0; i < n; i++ {
			eng.Step(0.25)
		}
	})
	out["testbed.engine.step_ns"] = ns

	// probe divides by calls; rescale to the ticks the last batch ran.
	ticks, calls := 0, 0
	ns, _ = pb.time(func(n int) {
		ticks = 0
		for i := 0; i < n; i++ {
			ticks += eng.RunTicks(40, 0.25)
		}
		calls = n
	})
	if ticks > 0 {
		out["testbed.engine.runticks_ns_per_tick"] = ns * float64(calls) / float64(ticks)
	}

	small, err := testbed.NewEngine(testbed.Emulab(10e6), seed)
	if err != nil {
		return err
	}
	ds := dataset.Uniform("probe-small", 20000, 1e9)
	for i := 0; i < 3; i++ {
		task, err := transfer.NewTask(fmt.Sprintf("s%d", i), ds, transfer.Setting{Concurrency: 2 + 3*i, Parallelism: 1, Pipelining: 1})
		if err != nil {
			return err
		}
		if err := small.AddTask(task); err != nil {
			return err
		}
	}
	ns, _ = pb.time(func(n int) {
		for i := 0; i < n; i++ {
			small.Step(0.25)
		}
	})
	out["testbed.engine.small_step_ns"] = ns
	return nil
}

func probeTrace(pb prober, _ int64, out map[string]float64) error {
	// 30k series (throughput, concurrency and loss of 10k sessions)
	// appended round-robin by name, rebuilt every 40 rounds so the probe
	// holds a fleet run's worth of points, not the whole probe's.
	const series, rounds = 3 * probeSessions, 40
	names := make([]string, series)
	for i := range names {
		names[i] = fmt.Sprintf("t%05d", i)
	}
	ts := &trace.TimeSet{}
	k := 0
	ns, _ := pb.time(func(n int) {
		for i := 0; i < n; i++ {
			if k == series*rounds {
				ts, k = &trace.TimeSet{}, 0
			}
			ts.Append(names[k%series], float64(k/series), 1)
			k++
		}
	})
	out["trace.append_ns"] = ns

	s := &trace.Series{Name: "probe"}
	for t := 0; t < 120; t++ {
		s.Append(float64(t), 0.001*float64(t))
	}
	sink := 0.0
	ns, _ = pb.time(func(n int) {
		for i := 0; i < n; i++ {
			sink += s.Between(108, 120).Mean()
		}
	})
	out["trace.between_mean_ns"] = ns
	if math.IsNaN(sink) {
		return fmt.Errorf("probe trace: NaN mean")
	}
	return nil
}

func probeBayesopt(pb prober, seed int64, out map[string]float64) error {
	for _, maxN := range []int{8, 64} {
		s := bayesopt.New(maxN, seed)
		noise := lcg(seed)
		cur := 2
		step := func() { cur = s.Next(optimizer.Observation{N: cur, Utility: probeUtility(cur, maxN, &noise)}) }
		for i := 0; i < 2*s.Window; i++ {
			step() // fill the window before timing
		}
		ns, _ := pb.time(func(n int) {
			for i := 0; i < n; i++ {
				step()
			}
		})
		out[fmt.Sprintf("bayesopt.next_us.n%d", maxN)] = ns / 1e3
	}

	// A 20-point window sliding by one observation per fit, as under
	// Search, then one posterior sweep over a 64-point grid.
	const window, maxN = 20, 64
	gp := bayesopt.NewGP(float64(maxN)/6, 1, 0.02)
	noise := lcg(seed)
	xs, ys := make([]float64, 0, window+1), make([]float64, 0, window+1)
	observe := func() {
		x := 1 + int(noise.next()*maxN)
		xs, ys = append(xs, float64(x)), append(ys, probeUtility(x, maxN, &noise))
		if len(xs) > window {
			xs, ys = append(xs[:0], xs[1:]...), append(ys[:0], ys[1:]...)
		}
	}
	for i := 0; i < window; i++ {
		observe()
	}
	var perr error
	ns, _ := pb.time(func(n int) {
		for i := 0; i < n; i++ {
			observe()
			if err := gp.Fit(xs, ys); err != nil {
				perr = err
			}
		}
	})
	out["bayesopt.fit_us"] = ns / 1e3
	if perr != nil {
		return fmt.Errorf("probe bayesopt fit: %w", perr)
	}
	grid, means, stds := make([]float64, maxN), make([]float64, maxN), make([]float64, maxN)
	for i := range grid {
		grid[i] = float64(i + 1)
	}
	ns, _ = pb.time(func(n int) {
		for i := 0; i < n; i++ {
			gp.PredictInto(grid, means, stds)
		}
	})
	out["bayesopt.predict_grid_us"] = ns / 1e3
	return nil
}

func probeLinalg(pb prober, seed int64, out map[string]float64) error {
	// Squared-exponential kernel over integer concurrencies 1…8 plus the
	// GP's noise on the diagonal: the matrix whose factor slides under
	// every BO decision of a fleet agent.
	const window, maxN = 20, 8
	var kern [maxN]float64
	for d := range kern {
		kern[d] = math.Exp(-0.5 * float64(d*d) / (float64(maxN) / 6 * float64(maxN) / 6))
	}
	noise := lcg(seed)
	row := make([]float64, 0, window)
	factors := [3]*linalg.Chol{linalg.NewChol(window), linalg.NewChol(window), linalg.NewChol(window)}
	var xs [3][]int
	var perr error
	push := func(f int) {
		x := int(noise.next() * maxN)
		row = row[:0]
		for _, y := range xs[f] {
			d := x - y
			if d < 0 {
				d = -d
			}
			row = append(row, kern[d])
		}
		row = append(row, kern[0]+0.02)
		if err := factors[f].AppendRow(row); err != nil {
			perr = err
		}
		xs[f] = append(xs[f], x)
	}
	for f := range factors {
		for i := 0; i < window; i++ {
			push(f)
		}
	}
	ns, _ := pb.time(func(n int) {
		for i := 0; i < n; i++ {
			factors[0].DropFirst()
			xs[0] = append(xs[0][:0], xs[0][1:]...)
			push(0)
		}
	})
	out["linalg.chol.slide_ns"] = ns

	var x, b [3][]float64
	for f := range x {
		x[f], b[f] = make([]float64, window), make([]float64, window)
		for i := range b[f] {
			b[f][i] = noise.next()
		}
	}
	ns, _ = pb.time(func(n int) {
		for i := 0; i < n; i++ {
			linalg.SolveInto3(factors[0], factors[1], factors[2], x[0], b[0], x[1], b[1], x[2], b[2])
		}
	})
	out["linalg.solve3_ns"] = ns
	if perr != nil {
		return fmt.Errorf("probe linalg: %w", perr)
	}
	return nil
}

// tickEnv is the least session.WindowEnv: every sample is ready and
// every setting applies, so a Tick costs what the session loop costs.
type tickEnv struct{ sample transfer.Sample }

func (e *tickEnv) Apply(s transfer.Setting) error       { e.sample.Setting = s; return nil }
func (e *tickEnv) Done() bool                           { return false }
func (e *tickEnv) BeginWindow()                         {}
func (e *tickEnv) TakeSample() (transfer.Sample, error) { return e.sample, nil }

func probeSearchers(pb prober, seed int64, out map[string]float64) error {
	const maxN = 8
	noise := lcg(seed)
	for _, s := range []optimizer.Search{optimizer.NewHillClimbing(maxN), optimizer.NewGradientDescent(maxN)} {
		name := map[string]string{"hill-climbing": "hc", "gradient-descent": "gd"}[s.Name()]
		cur := 2
		ns, _ := pb.time(func(n int) {
			for i := 0; i < n; i++ {
				cur = s.Next(optimizer.Observation{N: cur, Utility: probeUtility(cur, maxN, &noise)})
			}
		})
		out["optimizer.next."+name+"_ns"] = ns
	}

	params := utility.DefaultParams()
	sink := 0.0
	ns, _ := pb.time(func(n int) {
		for i := 0; i < n; i++ {
			sink += params.Evaluate(1+i%maxN, 1, 1e9, 0.001)
		}
	})
	out["utility.evaluate_ns"] = ns

	env := &tickEnv{sample: transfer.Sample{
		Setting: transfer.Setting{Concurrency: 2, Parallelism: 1, Pipelining: 1}, Duration: 3, Throughput: 1e9,
	}}
	sess, err := session.New(env, testbed.FixedController{S: env.sample.Setting}, session.Config{ID: "probe", Interval: 3})
	if err != nil {
		return err
	}
	now := 0.0
	sess.Start(now, env.sample.Setting)
	var perr error
	ns, _ = pb.time(func(n int) {
		for i := 0; i < n; i++ {
			now += 3 // every tick is a decision epoch
			if err := sess.Tick(now); err != nil {
				perr = err
			}
		}
	})
	out["session.tick_ns"] = ns
	if math.IsNaN(sink) {
		return fmt.Errorf("probe utility: NaN")
	}
	return perr
}

// probeHandlers calls the service's handler directly, with no socket,
// to separate handler work from net/http and loopback. One worker, so
// the simulations the light POSTs start do not take the probe's core.
func probeHandlers(pb prober, seed int64, out map[string]float64) error {
	svc := webservice.NewWithOptions(webservice.Options{Workers: 1})
	defer svc.Close()
	h := svc.Handler()
	do := func(method, path string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return w
	}
	bad := 0
	post := func(body []byte) string {
		w := do(http.MethodPost, "/api/scenarios", body)
		var created struct {
			ID string `json:"id"`
		}
		if w.Code != http.StatusAccepted || json.Unmarshal(w.Body.Bytes(), &created) != nil {
			bad++
		}
		return created.ID
	}
	hot := genRequests(seed, serviceSizes{}).Prime[0]
	first := post(hot)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if terminal(do(http.MethodGet, "/api/scenarios/"+first, nil).Body.Bytes()) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("probe handlers: hot document never completed")
		}
	}
	ns, _ := pb.time(func(n int) {
		for i := 0; i < n; i++ {
			post(hot)
		}
	})
	out["webservice.handler.create_hit_us"] = ns / 1e3

	lightSeed := seed * 1_000_003
	ns, _ = pb.time(func(n int) {
		for i := 0; i < n; i++ {
			lightSeed++
			post(mustJSON(flatRequest{Testbed: "emulab", Algorithm: "gd", DurationSeconds: 30, Seed: lightSeed}))
		}
	})
	out["webservice.handler.create_light_us"] = ns / 1e3

	// The store has evicted the first scenario by now; read a new one.
	path := "/api/scenarios/" + post(hot)
	ns, _ = pb.time(func(n int) {
		for i := 0; i < n; i++ {
			if do(http.MethodGet, path, nil).Code != http.StatusOK {
				bad++
			}
		}
	})
	out["webservice.handler.get_us"] = ns / 1e3
	if bad > 0 {
		return fmt.Errorf("probe handlers: %d requests refused", bad)
	}
	return nil
}
