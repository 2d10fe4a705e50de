package testbed

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/netsim"
	"repro/internal/transfer"
)

// Resource IDs used in the engine's network model.
const (
	resSrcStore = "src-store"
	resDstStore = "dst-store"
	resSrcNIC   = "src-nic"
	resDstNIC   = "dst-nic"
	resSrcCPU   = "src-cpu"
	resDstCPU   = "dst-cpu"
	resLink     = "link"
)

// taskSoA is the engine's per-task dynamic state in struct-of-arrays
// layout: one slot per registered task, every field a parallel slice
// indexed by that slot. The hot loops (the fold in step and the whole
// of fastTick) walk these arrays positionally — the same contiguous-
// array discipline the allocator's DenseAllocation boundary follows —
// instead of chasing per-task heap objects, which at fleet scale (10k+
// tasks) is the difference between streaming cache lines and a pointer
// miss per task per tick.
type taskSoA struct {
	task   []*transfer.Task
	handle []int32 // the slot's task handle (see Engine.hslot)

	// rate is the smoothed aggregate rate in bits/s (ramping toward
	// the equilibrium allocation); loss the most recent equilibrium
	// loss estimate; carry the sub-byte remainder of rate·dt/8 not yet
	// handed to Advance, so long transfers don't undercount one byte
	// per tick.
	rate  []float64
	loss  []float64
	carry []float64

	// Measurement-window accumulators.
	windowStart   []float64
	windowBytes   []float64
	windowLossSum []float64 // time-weighted loss integral
	windowDur     []float64

	// Fast-path cache, refreshed by every full Step: the per-connection
	// allocation and the allocation inputs it was derived from. While
	// these inputs are unchanged the per-tick update is pure arithmetic
	// on them (see fastTick), with no demand rebuild or map traffic.
	eqRate []float64 // alloc.Rate[di], bits/s per connection
	eqLoss []float64 // alloc.Loss[di]
	files  []int32   // ActiveFiles at allocation time
	conns  []int32   // ActiveConnections at allocation time
	q      []int32   // Setting().Pipelining at allocation time
	cc     []int32   // Setting().Concurrency at allocation time
	gen    []int32   // task.Generation() at allocation time

	// Positional mirrors of the task's progress counters, kept exact
	// by folding Advance's completed-file count back in: remBytes is
	// BytesRemaining, remFiles is RemainingFiles. fastTick derives the
	// remaining mean file size and the post-advance ActiveFiles from
	// these instead of calling back into the task.
	remBytes []int64
	remFiles []int32
}

// add appends a slot for t and returns its index.
func (s *taskSoA) add(t *transfer.Task, h int32, now float64) int32 {
	s.task = append(s.task, t)
	s.handle = append(s.handle, h)
	s.rate = append(s.rate, 0)
	s.loss = append(s.loss, 0)
	s.carry = append(s.carry, 0)
	s.windowStart = append(s.windowStart, now)
	s.windowBytes = append(s.windowBytes, 0)
	s.windowLossSum = append(s.windowLossSum, 0)
	s.windowDur = append(s.windowDur, 0)
	s.eqRate = append(s.eqRate, 0)
	s.eqLoss = append(s.eqLoss, 0)
	s.files = append(s.files, 0)
	s.conns = append(s.conns, 0)
	s.q = append(s.q, 0)
	s.cc = append(s.cc, 0)
	s.gen = append(s.gen, 0)
	s.remBytes = append(s.remBytes, 0)
	s.remFiles = append(s.remFiles, 0)
	return int32(len(s.task) - 1)
}

// move copies slot j's fields into slot i (swap-remove support).
func (s *taskSoA) move(i, j int32) {
	s.task[i] = s.task[j]
	s.handle[i] = s.handle[j]
	s.rate[i] = s.rate[j]
	s.loss[i] = s.loss[j]
	s.carry[i] = s.carry[j]
	s.windowStart[i] = s.windowStart[j]
	s.windowBytes[i] = s.windowBytes[j]
	s.windowLossSum[i] = s.windowLossSum[j]
	s.windowDur[i] = s.windowDur[j]
	s.eqRate[i] = s.eqRate[j]
	s.eqLoss[i] = s.eqLoss[j]
	s.files[i] = s.files[j]
	s.conns[i] = s.conns[j]
	s.q[i] = s.q[j]
	s.cc[i] = s.cc[j]
	s.gen[i] = s.gen[j]
	s.remBytes[i] = s.remBytes[j]
	s.remFiles[i] = s.remFiles[j]
}

// truncate drops the last slot (which must have been moved or removed).
func (s *taskSoA) truncate() {
	last := len(s.task) - 1
	s.task[last] = nil // release the pointer for GC
	s.task = s.task[:last]
	s.handle = s.handle[:last]
	s.rate = s.rate[:last]
	s.loss = s.loss[:last]
	s.carry = s.carry[:last]
	s.windowStart = s.windowStart[:last]
	s.windowBytes = s.windowBytes[:last]
	s.windowLossSum = s.windowLossSum[:last]
	s.windowDur = s.windowDur[:last]
	s.eqRate = s.eqRate[:last]
	s.eqLoss = s.eqLoss[:last]
	s.files = s.files[:last]
	s.conns = s.conns[:last]
	s.q = s.q[:last]
	s.cc = s.cc[:last]
	s.gen = s.gen[:last]
	s.remBytes = s.remBytes[:last]
	s.remFiles = s.remFiles[:last]
}

// len returns the number of occupied slots.
func (s *taskSoA) len() int { return len(s.task) }

// demandKey is the memo key contribution of one demand (see
// memoValid for what the key does and does not cover).
type demandKey struct {
	id     string
	cap    float64
	weight int
}

// Engine advances a set of transfer tasks through a Config's resources
// in simulated time. It is deterministic for a given seed.
type Engine struct {
	cfg Config
	net *netsim.Network
	rng *rand.Rand
	now float64
	soa taskSoA

	// Task identity. Every AddTask mints the next dense handle; handles
	// are never reused, so a stale one can never alias a newcomer. byID
	// is consulted only at the API boundary (AddTask, RemoveTask, the
	// by-ID accessors); the per-tick and per-point paths carry handles.
	// hslot maps handle → soa slot (-1 once removed) and is patched on
	// every swap-remove. order lists handles in insertion order, the
	// deterministic iteration order; a removal leaves a tombstone
	// (hslot < 0) that walks skip and compactOrder squeezes out once
	// tombstones reach half the list.
	byID  map[string]int32
	hslot []int32
	order []int32
	dead  int // tombstones in order

	// Step scratch buffers, reused every tick so the steady-state hot
	// path performs no heap allocations.
	path    []string
	active  []int32
	demands []netsim.Demand
	alloc   netsim.DenseAllocation

	// Allocator memo: between optimizer decisions the demand set and
	// contention counts are unchanged for many consecutive ticks, so
	// the equilibrium allocation in e.alloc can be reused instead of
	// re-running water-filling. memoKey/memoCaps record the inputs the
	// cached allocation was computed for; netsim.Allocate is stateless
	// and deterministic, so replaying the cached result is exactly what
	// a re-run would produce. memoOK is the cache-validity bit: a
	// mutation clears it (applyDueMutations).
	memoOK   bool
	memoKey  []demandKey
	memoCaps [4]float64
	// memoGen is the network's capacity generation the cached
	// allocation was computed under. Contention capacities are covered
	// by memoCaps, but the link (and any capacity touched by an
	// environment mutation) is not — the generation counter makes a
	// stale fill after a capacity change impossible even if a mutation
	// path forgets to clear memoOK. An RTT change has no such backstop.
	// Idempotent per-tick capacity refreshes don't advance it.
	memoGen uint64

	// Event-horizon fast path (RunTicks). factive snapshots the active
	// slots the cached allocation covers; fastOK reports that their
	// cached inputs still match the engine, so ticks can be replayed by
	// fastTick without rebuilding demands; stepChanged records whether
	// the last tick crossed a file-count horizon (a macro-step boundary
	// callers must observe).
	fastOK      bool
	stepChanged bool
	factive     []int32

	// Timed environment mutations (see mutation.go): muts[:mutNext] is
	// the applied prefix, muts[mutNext:] the pending schedule sorted by
	// (At, seq), mutSeq the next tie-break sequence number.
	muts    []Mutation
	mutNext int
	mutSeq  int

	// drained lists the handles of tasks that completed their dataset
	// during the most recent public advance (Step or RunTicks call), in
	// deterministic task order. The engine already detects the
	// file-count horizon crossing per tick, so completion consumers
	// (the scheduler's event-queue path) read this list instead of
	// polling every task's Done() — see Drained.
	drained []int32

	// The ramp factors of the last (dt, τ) a tick ran with (see
	// rampFactors).
	rampDt, rampTau, rampUp, rampDown float64
}

// enginePath is the fixed end-to-end resource path every engine's
// demands traverse. It is read-only and shared across engines, so
// construction doesn't re-allocate it.
var enginePath = []string{resSrcStore, resSrcCPU, resSrcNIC, resLink, resDstNIC, resDstCPU, resDstStore}

// NewEngine validates cfg and returns an engine seeded for
// deterministic noise.
func NewEngine(cfg Config, seed int64) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := netsim.New()
	n.AddResource(netsim.Resource{ID: resSrcStore, Kind: netsim.Storage, Capacity: cfg.SrcStore.AggregateCap})
	n.AddResource(netsim.Resource{ID: resDstStore, Kind: netsim.Storage, Capacity: cfg.DstStore.AggregateCap})
	n.AddResource(netsim.Resource{ID: resSrcNIC, Kind: netsim.NIC, Capacity: cfg.SrcHost.NICCap})
	n.AddResource(netsim.Resource{ID: resDstNIC, Kind: netsim.NIC, Capacity: cfg.DstHost.NICCap})
	n.AddResource(netsim.Resource{ID: resSrcCPU, Kind: netsim.CPU, Capacity: cfg.SrcHost.CPUCap})
	n.AddResource(netsim.Resource{ID: resDstCPU, Kind: netsim.CPU, Capacity: cfg.DstHost.CPUCap})
	n.AddResource(netsim.Resource{ID: resLink, Kind: netsim.Link, Capacity: cfg.LinkCapacity})
	if cfg.Congestion == "bbr" {
		n.SetLossModel(netsim.BBRLossModel())
	}
	return &Engine{
		cfg:  cfg,
		net:  n,
		rng:  rand.New(rand.NewSource(seed)),
		byID: make(map[string]int32),
		path: enginePath,
	}, nil
}

// AllocClasses returns the number of distinct flow classes in the
// engine's most recent allocation: tasks running the same parallelism
// setting collapse into one class each.
func (e *Engine) AllocClasses() int { return e.net.Classes() }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// AddTask registers a task. The task starts transferring on the next
// Step. It returns an error on duplicate IDs.
func (e *Engine) AddTask(t *transfer.Task) error {
	_, err := e.addTask(t)
	return err
}

// addTask is AddTask returning the new task's handle.
func (e *Engine) addTask(t *transfer.Task) (int32, error) {
	if t == nil {
		return -1, fmt.Errorf("testbed: nil task")
	}
	if _, dup := e.byID[t.ID()]; dup {
		return -1, fmt.Errorf("testbed: duplicate task %q", t.ID())
	}
	h := int32(len(e.hslot))
	e.byID[t.ID()] = h
	e.hslot = append(e.hslot, e.soa.add(t, h, e.now))
	e.order = append(e.order, h)
	e.fastOK = false
	return h, nil
}

// RemoveTask deregisters a task (e.g. a departing competitor). Removing
// an unknown ID is a no-op. The last slot is swapped into the vacated
// one, so the arrays stay dense; the task's handle is retired for good
// and its order entry becomes a tombstone.
func (e *Engine) RemoveTask(id string) {
	h, ok := e.byID[id]
	if !ok {
		return
	}
	delete(e.byID, id)
	i := e.hslot[h]
	e.hslot[h] = -1
	if last := int32(e.soa.len() - 1); i != last {
		e.soa.move(i, last)
		e.hslot[e.soa.handle[i]] = i
	}
	e.soa.truncate()
	if e.dead++; 2*e.dead >= len(e.order) {
		e.compactOrder()
	}
	e.fastOK = false
}

// compactOrder drops the tombstones from order, keeping the survivors'
// relative (insertion) order.
func (e *Engine) compactOrder() {
	live := e.order[:0]
	for _, h := range e.order {
		if e.hslot[h] >= 0 {
			live = append(live, h)
		}
	}
	e.order, e.dead = live, 0
}

// Handle returns the task's dense handle — what Drained reports — or
// -1 for an unknown ID.
func (e *Engine) Handle(id string) int32 {
	if h, ok := e.byID[id]; ok {
		return h
	}
	return -1
}

// slotOf returns the soa slot behind a handle, or -1 for a handle that
// was never minted or whose task has been removed.
func (e *Engine) slotOf(h int32) int32 {
	if uint32(h) >= uint32(len(e.hslot)) {
		return -1
	}
	return e.hslot[h]
}

// Task returns the task with the given ID, or nil.
func (e *Engine) Task(id string) *transfer.Task {
	if i := e.slotOf(e.Handle(id)); i >= 0 {
		return e.soa.task[i]
	}
	return nil
}

// TaskIDs returns the registered task IDs in insertion order.
func (e *Engine) TaskIDs() []string {
	ids := make([]string, 0, e.soa.len())
	for _, h := range e.order {
		if i := e.hslot[h]; i >= 0 {
			ids = append(ids, e.soa.task[i].ID())
		}
	}
	return ids
}

// CurrentRate returns the task's instantaneous (smoothed) throughput in
// bits/s, or 0 for unknown tasks.
func (e *Engine) CurrentRate(id string) float64 { return e.rateOf(e.Handle(id)) }

// rateOf is CurrentRate by handle.
func (e *Engine) rateOf(h int32) float64 {
	if i := e.slotOf(h); i >= 0 {
		return e.soa.rate[i]
	}
	return 0
}

// CurrentLoss returns the task's latest loss estimate.
func (e *Engine) CurrentLoss(id string) float64 {
	if i := e.slotOf(e.Handle(id)); i >= 0 {
		return e.soa.loss[i]
	}
	return 0
}

// AggregateRate returns the sum of all tasks' instantaneous rates,
// accumulated in slot order so the float fold is deterministic.
func (e *Engine) AggregateRate() float64 {
	sum := 0.0
	for _, r := range e.soa.rate {
		sum += r
	}
	return sum
}

// activeSlots returns the slots of unfinished tasks in deterministic
// order. The returned slice is an engine-owned scratch buffer valid
// until the next call.
func (e *Engine) activeSlots() []int32 {
	e.active = e.active[:0]
	for _, h := range e.order {
		if i := e.hslot[h]; i >= 0 && !e.soa.task[i].Done() {
			e.active = append(e.active, i)
		}
	}
	return e.active
}

// Step advances the simulation by dt seconds. It panics on
// non-positive dt (a driver bug).
func (e *Engine) Step(dt float64) {
	e.drained = e.drained[:0]
	e.step(dt)
}

// Drained returns the handles of tasks that drained their dataset
// during the most recent Step or RunTicks call, in deterministic task
// order. The slice is engine-owned and valid until the next advance.
func (e *Engine) Drained() []int32 { return e.drained }

// step is one full tick: rebuild demands, allocate (or replay the
// memo), and advance every active task.
func (e *Engine) step(dt float64) {
	if dt <= 0 {
		panic(fmt.Sprintf("testbed: Step(%v) must be positive", dt))
	}
	if e.mutationDue() {
		// Apply before demands are rebuilt so this tick already runs
		// under the mutated environment; the fast path refuses to replay
		// a tick with a due mutation, so batched stepping lands here at
		// the same tick as a per-tick Step loop.
		e.applyDueMutations()
	}
	active := e.activeSlots()
	if len(active) == 0 {
		e.now += dt
		// A drained engine has no allocation inputs left to change:
		// fastTick over an empty snapshot just advances the clock, so
		// batching stays engaged.
		e.factive = e.factive[:0]
		e.fastOK = true
		e.stepChanged = false
		return
	}

	// Contention-dependent capacities from the global thread and
	// connection counts.
	srcThreads, dstThreads, conns := 0, 0, 0
	for _, i := range active {
		t := e.soa.task[i]
		srcThreads += t.ActiveFiles()
		dstThreads += t.ActiveFiles()
		conns += t.ActiveConnections()
	}
	srcStoreCap := e.cfg.SrcStore.EffectiveAggregate(srcThreads)
	dstStoreCap := e.cfg.DstStore.EffectiveAggregate(dstThreads)
	srcCPUCap := e.cfg.SrcHost.EffectiveCPU(conns)
	dstCPUCap := e.cfg.DstHost.EffectiveCPU(conns)
	e.net.SetCapacity(resSrcStore, srcStoreCap)
	e.net.SetCapacity(resDstStore, dstStoreCap)
	e.net.SetCapacity(resSrcCPU, srcCPUCap)
	e.net.SetCapacity(resDstCPU, dstCPUCap)

	// One weighted demand per task: all n×p connections of a task are
	// identical TCP flows with the same per-connection cap.
	demands := e.demands[:0]
	for _, i := range active {
		t := e.soa.task[i]
		set := t.Setting()
		m := t.ActiveConnections()
		if m == 0 {
			continue
		}
		demands = append(demands, netsim.Demand{
			FlowID:    t.ID(),
			Resources: e.path,
			Cap:       e.perConnCap(set),
			RTT:       e.cfg.RTT,
			Weight:    m,
		})
	}
	e.demands = demands

	caps := [4]float64{srcStoreCap, dstStoreCap, srcCPUCap, dstCPUCap}
	if !e.memoValid(demands, caps) {
		if err := e.net.AllocateDense(&e.alloc, demands); err != nil {
			// Demands are constructed internally; an error is a bug.
			panic(fmt.Sprintf("testbed: allocation failed: %v", err))
		}
		e.memoRecord(demands, caps)
	}
	alloc := &e.alloc

	// Fold the per-connection allocation into per-task equilibrium
	// rates and losses, apply pipelining efficiency and ramping, and
	// advance the tasks. Along the way, snapshot the allocation inputs
	// per slot so subsequent ticks can be replayed by fastTick while
	// nothing observable changes.
	fUp, fDown := e.rampFactors(dt)
	changed := false
	e.factive = e.factive[:0]
	s := &e.soa
	di := 0 // demand index: demands were appended in active order, skipping m == 0
	for _, i := range active {
		t := s.task[i]
		set := t.Setting()
		m := t.ActiveConnections()
		files := t.ActiveFiles()
		var eqRate, loss float64
		if m > 0 {
			eqRate = alloc.Rate[di]
			loss = alloc.Loss[di]
			di++
		}
		eq := eqRate * float64(m)
		if m > 0 {
			perFileRate := eq / float64(files)
			eff := transfer.PipelineEfficiency(t.RemainingMeanFileSize(), perFileRate, e.cfg.RTT, set.Pipelining)
			eq *= eff
		}

		// Exponential approach to equilibrium. Rate reductions (losing
		// a share to a newcomer, dropping connections) take effect
		// faster than slow-start growth: congestion control backs off
		// within a few RTTs.
		f := fUp
		if eq < s.rate[i] {
			f = fDown
		}
		s.rate[i] += (eq - s.rate[i]) * f
		if s.rate[i] < 0 {
			s.rate[i] = 0
		}
		s.loss[i] = loss

		bytes := s.rate[i] * dt / 8
		s.windowBytes[i] += bytes
		s.windowLossSum[i] += loss * dt
		s.windowDur[i] += dt
		whole := bytes + s.carry[i]
		n := int64(whole)
		s.carry[i] = whole - float64(n)
		t.Advance(n, dt)

		s.eqRate[i] = eqRate
		s.eqLoss[i] = loss
		s.files[i] = int32(files)
		s.conns[i] = int32(m)
		s.q[i] = int32(set.Pipelining)
		s.cc[i] = int32(set.Concurrency)
		s.gen[i] = int32(t.Generation())
		s.remBytes[i] = t.BytesRemaining()
		s.remFiles[i] = int32(t.RemainingFiles())
		e.factive = append(e.factive, i)
		if t.ActiveFiles() != files {
			changed = true
			if t.Done() {
				e.drained = append(e.drained, s.handle[i])
			}
		}
	}
	e.now += dt
	e.stepChanged = changed
	// The cached allocation and snapshots describe the current state
	// only if the allocator memo is live and this tick crossed no file
	// horizon.
	e.fastOK = e.memoOK && !changed
}

// rampFactors returns the blend factors of the exponential approach to
// equilibrium over a tick of dt: 1−exp(−dt/τ) for growth and
// 1−exp(−dt/(τ/3)) for back-off. They are recomputed only when dt or τ
// differs from the last tick's — τ follows cfg.RTT, which a MutRTT
// moves — and math.Exp is deterministic, so a cached pair is
// bit-identical to a fresh one.
func (e *Engine) rampFactors(dt float64) (up, down float64) {
	if tau := e.cfg.rampTau(); dt != e.rampDt || tau != e.rampTau {
		e.rampDt, e.rampTau = dt, tau
		e.rampUp = 1 - math.Exp(-dt/tau)
		e.rampDown = 1 - math.Exp(-dt/(tau/3))
	}
	return e.rampUp, e.rampDown
}

// gensLive reports whether every snapshotted task's generation still
// matches the live task — no session Apply or dataset extension has
// retuned a task behind the engine's back since the snapshot was taken.
// RunTicks checks it once per fast-path window rather than per tick:
// between the ticks of a single RunTicks call no external code runs,
// so generations cannot change mid-call.
func (e *Engine) gensLive() bool {
	for _, i := range e.factive {
		if e.soa.gen[i] != int32(e.soa.task[i].Generation()) {
			return false
		}
	}
	return true
}

// fastTick replays one Step over the cached allocation snapshot: the
// identical per-task arithmetic (pipelining efficiency, ramp, window
// accumulation, byte advance) with the demand rebuild, capacity
// recomputation, memo comparison, and allocation lookups skipped. All
// task state it reads — remaining bytes and files, the cached
// allocation inputs — comes positionally from the SoA arrays; the only
// call back into the task is Advance, whose completed-file count folds
// straight back into the mirrors. It reports whether the tick crossed
// a file-count horizon, which invalidates the snapshot for the next
// tick.
func (e *Engine) fastTick(dt float64) bool {
	if len(e.factive) == 0 {
		e.now += dt
		return false
	}
	fUp, fDown := e.rampFactors(dt)
	changed := false
	s := &e.soa
	for _, i := range e.factive {
		conns := s.conns[i]
		eq := s.eqRate[i] * float64(conns)
		if conns > 0 {
			perFileRate := eq / float64(s.files[i])
			// Remaining mean file size from the positional mirrors:
			// identical to Task.RemainingMeanFileSize, which divides the
			// same int64 counters.
			var mean float64
			if s.remFiles[i] > 0 {
				mean = float64(s.remBytes[i]) / float64(s.remFiles[i])
			}
			eff := transfer.PipelineEfficiency(mean, perFileRate, e.cfg.RTT, int(s.q[i]))
			eq *= eff
		}
		f := fUp
		if eq < s.rate[i] {
			f = fDown
		}
		s.rate[i] += (eq - s.rate[i]) * f
		if s.rate[i] < 0 {
			s.rate[i] = 0
		}
		s.loss[i] = s.eqLoss[i]

		bytes := s.rate[i] * dt / 8
		s.windowBytes[i] += bytes
		s.windowLossSum[i] += s.eqLoss[i] * dt
		s.windowDur[i] += dt
		whole := bytes + s.carry[i]
		n := int64(whole)
		s.carry[i] = whole - float64(n)
		if done := s.task[i].Advance(n, dt); done > 0 {
			s.remFiles[i] -= int32(done)
		}
		if n >= s.remBytes[i] {
			s.remBytes[i] = 0
		} else {
			s.remBytes[i] -= n
		}
		af := s.remFiles[i]
		if s.cc[i] < af {
			af = s.cc[i]
		}
		if af != s.files[i] {
			changed = true
			if af == 0 { // min(cc, remaining) == 0 ⇔ the task drained
				e.drained = append(e.drained, s.handle[i])
			}
		}
	}
	e.now += dt
	if changed {
		e.fastOK = false
	}
	e.stepChanged = changed
	return changed
}

// RunTicks advances up to k ticks of dt seconds each, using the fast
// replay path whenever the allocation snapshot is live and falling
// back to a full Step otherwise. It returns after the tick on which a
// file-count horizon is crossed (a task finished a file in a way that
// changes its ActiveFiles, or completed), so drivers can run their
// per-event bookkeeping at exactly the time the always-tick loop
// would; the return value is the number of ticks actually executed.
// The tick sequence — and every per-task float operation within it —
// is identical to calling Step(dt) k times. It panics on non-positive
// dt (a driver bug); k ≤ 0 executes nothing.
func (e *Engine) RunTicks(k int, dt float64) int {
	if dt <= 0 {
		panic(fmt.Sprintf("testbed: RunTicks(dt=%v) must be positive", dt))
	}
	e.drained = e.drained[:0]
	consumed := 0
	// Generations are validated once per fast-path window: a full step
	// re-snapshots them, and nothing can retune a task between the
	// ticks of one RunTicks call.
	gensOK := false
	for consumed < k {
		if e.fastOK && !e.mutationDue() && (gensOK || e.gensLive()) {
			gensOK = true
			if e.fastTick(dt) {
				return consumed + 1
			}
			consumed++
			continue
		}
		e.step(dt)
		gensOK = true
		consumed++
		if e.stepChanged {
			return consumed
		}
	}
	return consumed
}

// StepUntil advances the engine in ticks of dt until Now() ≥ t, the
// macro-step equivalent of `for e.Now() < t { e.Step(dt) }` (the final
// tick may overshoot t, exactly as that loop does). The remaining tick
// count is derived by replaying the clock accumulation, so boundary
// comparisons match the per-tick loop bit for bit.
func (e *Engine) StepUntil(t, dt float64) {
	if dt <= 0 {
		panic(fmt.Sprintf("testbed: StepUntil(dt=%v) must be positive", dt))
	}
	for e.now < t {
		u, k := e.now, 0
		for u < t {
			u += dt
			k++
		}
		e.RunTicks(k, dt)
	}
}

// NextEvent returns a conservative estimate of the earliest simulated
// time at which the engine's allocation inputs can change on their
// own: a task crossing the file boundary that alters its ActiveFiles
// count, including completing outright. The estimate divides each
// task's horizon bytes by the larger of its current smoothed rate and
// its equilibrium target, so a still-ramping transfer (whose rate only
// grows toward equilibrium) can make the estimate early but never
// late-beyond-the-event in steady state; RunTicks re-verifies every
// tick regardless, so the estimate affects macro-step sizing only,
// never correctness. Pending environment mutations bound the estimate
// too: the allocation inputs change at the mutation's tick. Returns
// +Inf when nothing is in sight (no active tasks, or all rates zero).
func (e *Engine) NextEvent() float64 {
	h := e.NextMutation()
	for _, th := range e.order {
		i := e.hslot[th]
		if i < 0 || e.soa.task[i].Done() {
			continue
		}
		t := e.soa.task[i]
		bound := e.soa.rate[i]
		if eq := e.soa.eqRate[i] * float64(e.soa.conns[i]); eq > bound {
			bound = eq
		}
		if bound <= 0 {
			continue
		}
		if at := e.now + float64(t.HorizonBytes())*8/bound; at < h {
			h = at
		}
	}
	return h
}

// memoValid reports whether the cached allocation in e.alloc was
// computed for exactly these demands and capacities. Resource paths
// and the loss model are fixed at construction, so between mutations
// (FlowID, Cap, Weight) per demand plus the contention-dependent
// capacities and the capacity generation determine the allocator's
// output. RTT is not in the key: a MutRTT changes it, and the memo stays
// correct only because applyDueMutations clears memoOK.
func (e *Engine) memoValid(demands []netsim.Demand, caps [4]float64) bool {
	if !e.memoOK || caps != e.memoCaps || len(demands) != len(e.memoKey) {
		return false
	}
	if e.net.CapacityGeneration() != e.memoGen {
		return false
	}
	for i := range demands {
		k := &e.memoKey[i]
		if demands[i].FlowID != k.id || demands[i].Cap != k.cap || demands[i].Weight != k.weight {
			return false
		}
	}
	return true
}

// memoRecord snapshots the inputs the just-computed allocation in
// e.alloc corresponds to.
func (e *Engine) memoRecord(demands []netsim.Demand, caps [4]float64) {
	e.memoKey = e.memoKey[:0]
	for i := range demands {
		e.memoKey = append(e.memoKey, demandKey{id: demands[i].FlowID, cap: demands[i].Cap, weight: demands[i].Weight})
	}
	e.memoCaps = caps
	e.memoGen = e.net.CapacityGeneration()
	e.memoOK = true
}

// perConnCap returns the intrinsic per-connection rate cap for a task
// using the given setting: the per-process I/O limit split across the
// file's p streams, and the per-stream TCP window limit.
func (e *Engine) perConnCap(set transfer.Setting) float64 {
	perProc := math.Min(e.cfg.SrcStore.PerProcCap, e.cfg.DstStore.PerProcCap)
	cap := perProc / float64(set.Parallelism)
	if sc := e.streamCap(); sc > 0 && sc < cap {
		cap = sc
	}
	return cap
}

// streamCap returns the per-TCP-stream rate bound from the bandwidth-
// delay product with a 8 MiB socket buffer — the classic long-fat-
// network limitation that makes parallel streams worthwhile (§4.4).
// Negligible at sub-millisecond RTT.
func (e *Engine) streamCap() float64 {
	if e.cfg.RTT < 0.001 {
		return 0
	}
	const bufferBits = 8 * (1 << 20) * 8
	return bufferBits / e.cfg.RTT
}

// BeginWindow resets the task's measurement window. Unknown IDs are a
// no-op.
func (e *Engine) BeginWindow(id string) { e.beginWindowOf(e.Handle(id)) }

// beginWindowOf is BeginWindow by handle.
func (e *Engine) beginWindowOf(h int32) {
	i := e.slotOf(h)
	if i < 0 {
		return
	}
	e.soa.windowStart[i] = e.now
	e.soa.windowBytes[i] = 0
	e.soa.windowLossSum[i] = 0
	e.soa.windowDur[i] = 0
}

// TakeSample closes the task's measurement window and returns the
// observed sample with measurement noise applied, then begins a new
// window. It returns an error for unknown tasks or empty windows.
func (e *Engine) TakeSample(id string) (transfer.Sample, error) {
	h := e.Handle(id)
	if h < 0 {
		return transfer.Sample{}, fmt.Errorf("testbed: unknown task %q", id)
	}
	return e.takeSampleOf(h)
}

// takeSampleOf is TakeSample by handle; a retired handle is an unknown
// task, never the task whose slot was swapped in behind it.
func (e *Engine) takeSampleOf(h int32) (transfer.Sample, error) {
	i := e.slotOf(h)
	if i < 0 {
		return transfer.Sample{}, fmt.Errorf("testbed: unknown task handle %d", h)
	}
	if e.soa.windowDur[i] <= 0 {
		return transfer.Sample{}, fmt.Errorf("testbed: empty measurement window for %q", e.soa.task[i].ID())
	}
	tput := e.soa.windowBytes[i] * 8 / e.soa.windowDur[i]
	if e.cfg.NoiseStdDev > 0 {
		factor := 1 + e.cfg.NoiseStdDev*e.rng.NormFloat64()
		if factor < 0.5 {
			factor = 0.5
		}
		if factor > 1.5 {
			factor = 1.5
		}
		tput *= factor
	}
	loss := e.soa.windowLossSum[i] / e.soa.windowDur[i]
	s := transfer.Sample{
		Setting:    e.soa.task[i].Setting(),
		Duration:   e.soa.windowDur[i],
		Throughput: tput,
		Loss:       loss,
		Time:       e.now,
	}
	e.beginWindowOf(h)
	return s, nil
}

// SaturationConcurrency estimates the concurrency needed to reach the
// testbed's end-to-end capacity with parallelism 1: the number of
// per-process-capped streams required to fill the narrowest aggregate
// resource. This is the "optimal concurrency" profiling tools would
// report (Table 1 context), available to experiments as ground truth.
func (e *Engine) SaturationConcurrency() int {
	perProc := math.Min(e.cfg.SrcStore.PerProcCap, e.cfg.DstStore.PerProcCap)
	if sc := e.streamCap(); sc > 0 && sc < perProc {
		perProc = sc
	}
	bottleneck := e.EndToEndCapacity()
	return int(math.Ceil(bottleneck / perProc))
}

// EndToEndCapacity returns the narrowest aggregate capacity along the
// path at low contention — the maximum achievable transfer rate.
func (e *Engine) EndToEndCapacity() float64 {
	caps := []float64{
		e.cfg.SrcStore.AggregateCap,
		e.cfg.DstStore.AggregateCap,
		e.cfg.SrcHost.NICCap,
		e.cfg.DstHost.NICCap,
		e.cfg.SrcHost.CPUCap,
		e.cfg.DstHost.CPUCap,
		e.cfg.LinkCapacity,
	}
	sort.Float64s(caps)
	return caps[0]
}
