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
// indexed by that slot. The hot loop (fold, the engine's one per-task
// advance) walks these arrays positionally — the same contiguous-
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

	// The snapshot: the per-connection allocation and the allocation
	// inputs it was derived from, refreshed for every active slot by a
	// full step and for the retuned slots by a retune tick. The per-tick
	// update is pure arithmetic on them (see fold), with no demand
	// rebuild or map traffic.
	eqRate []float64 // alloc.Rate[k], bits/s per connection
	eqLoss []float64 // alloc.Loss[k]
	files  []int32   // ActiveFiles at snapshot time
	conns  []int32   // ActiveConnections at snapshot time
	q      []int32   // Setting().Pipelining at snapshot time
	cc     []int32   // Setting().Concurrency at snapshot time
	gen    []int32   // task.Generation() at snapshot time (drained slots too)

	// Positional mirrors of the task's progress counters, kept exact
	// by folding Advance's completed-file count back in: remBytes is
	// BytesRemaining, remFiles is RemainingFiles. fold derives the
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
	// path performs no heap allocations. demands[k] is the demand of
	// the k-th factive slot: an active task always has a connection
	// (settings are ≥ 1 in every knob, and an undrained task has a file
	// left), so every active slot has exactly one demand, which is what
	// lets a retune tick edit demands positionally.
	path    []string
	demands []netsim.Demand
	alloc   netsim.DenseAllocation

	// snapCaps are the four contention capacities the snapshot's
	// allocation was filled under. A retune tick refills only when a
	// demand or one of these moved; every other capacity changes only
	// on a full step, which always allocates.
	snapCaps [4]float64

	// The snapshot's slot sets (see RunTicks). factive lists the active
	// slots the allocation covers, idle the registered slots that had
	// drained; stale is why the next RunTicks tick must be a full step
	// (a join or leave, or a file-count horizon crossed by the last
	// tick, a macro-step boundary callers must observe), or fresh when
	// only a generation bump can have moved since the snapshot.
	// bumped is RunTicks' scratch list of the factive positions whose
	// generation moved. sumFiles and sumConns are the snapshot's
	// Σ ActiveFiles and Σ ActiveConnections, the integer inputs of the
	// four contention capacities.
	stale              fullCause
	factive            []int32
	idle               []int32
	bumped             []int32
	sumFiles, sumConns int

	// ticks counts the ticks taken on each tier (see TickCounts).
	ticks TickCounts

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
	e.stale = causeJoinLeave
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
	e.stale = causeJoinLeave
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

// rateOf is CurrentRate by handle.
func (e *Engine) rateOf(h int32) float64 {
	if i := e.slotOf(h); i >= 0 {
		return e.soa.rate[i]
	}
	return 0
}

// TickCounts counts an engine's ticks by tier since construction (see
// RunTicks), and its full steps by cause. Every tick is exactly one of
// Full, Retune and Replay, and every full step has exactly one cause.
type TickCounts struct {
	// Full ticks rebuilt the snapshot from the live tasks and allocated
	// afresh. Full is the sum of the five causes below.
	Full uint64
	// Stepped full ticks were Step calls. The others are RunTicks
	// ticks: JoinLeave after a task joined or left (an engine's first
	// tick included), Mutation when a mutation was due, Horizon after
	// the last tick crossed a file-count horizon, and Fallback when an
	// Extend revived a drained task or the allocator refused to retune
	// in place. A tick with two causes counts under a due mutation
	// first, then under the later of a join or leave and a horizon.
	Stepped, JoinLeave, Mutation, Horizon, Fallback uint64
	// Retune ticks found only settings moved and edited the snapshot
	// and allocation in place.
	Retune uint64
	// Replay ticks found nothing moved and folded the snapshot as is.
	Replay uint64
}

// add returns the field-by-field sum of c and d.
func (c TickCounts) add(d TickCounts) TickCounts {
	return TickCounts{
		Full:      c.Full + d.Full,
		Stepped:   c.Stepped + d.Stepped,
		JoinLeave: c.JoinLeave + d.JoinLeave,
		Mutation:  c.Mutation + d.Mutation,
		Horizon:   c.Horizon + d.Horizon,
		Fallback:  c.Fallback + d.Fallback,
		Retune:    c.Retune + d.Retune,
		Replay:    c.Replay + d.Replay,
	}
}

// TickCounts returns the engine's per-tier tick counts.
func (e *Engine) TickCounts() TickCounts { return e.ticks }

// fullCause is why a tick takes a full step (see TickCounts).
type fullCause uint8

const (
	// causeJoinLeave is the zero value: a new engine has no snapshot,
	// and its first tick counts as its tasks' joins.
	causeJoinLeave fullCause = iota
	causeHorizon
	causeMutation
	causeFallback
	causeStepped
	// fresh is no cause: the snapshot is current.
	fresh
)

// Step advances the simulation by dt seconds with one full step. It
// panics on non-positive dt (a driver bug).
func (e *Engine) Step(dt float64) {
	e.drained = e.drained[:0]
	e.step(dt, causeStepped)
}

// Drained returns the handles of tasks that drained their dataset
// during the most recent Step or RunTicks call, in deterministic task
// order. The slice is engine-owned and valid until the next advance.
func (e *Engine) Drained() []int32 { return e.drained }

// step is one full tick, counted under cause: apply due mutations,
// refresh the snapshot from the live tasks, and fold.
func (e *Engine) step(dt float64, cause fullCause) {
	if dt <= 0 {
		panic(fmt.Sprintf("testbed: Step(%v) must be positive", dt))
	}
	e.ticks.Full++
	switch cause {
	case causeJoinLeave:
		e.ticks.JoinLeave++
	case causeHorizon:
		e.ticks.Horizon++
	case causeMutation:
		e.ticks.Mutation++
	case causeFallback:
		e.ticks.Fallback++
	default:
		e.ticks.Stepped++
	}
	// Due mutations apply before the snapshot is refreshed, so this tick
	// already runs under the mutated environment; RunTicks never skips a
	// tick with a due mutation, so batched stepping lands here at the
	// same tick as a per-tick Step loop.
	e.applyDueMutations()
	e.refresh()
	e.fold(dt)
}

// refresh rebuilds the snapshot from the live tasks: the active and
// drained slot sets, every active slot's allocation inputs and progress
// mirrors, one weighted demand per active task, the contention
// capacities, and the allocation. It always allocates: a RunTicks full
// step follows a join, leave, mutation or file-count horizon, after
// which the fill's inputs have moved, and netsim's partition cache
// already reuses what it can (see DESIGN.md).
func (e *Engine) refresh() {
	s := &e.soa
	e.factive = e.factive[:0]
	e.idle = e.idle[:0]
	for _, h := range e.order {
		i := e.hslot[h]
		if i < 0 {
			continue
		}
		if t := s.task[i]; t.Done() {
			s.gen[i] = int32(t.Generation())
			e.idle = append(e.idle, i)
			continue
		}
		e.factive = append(e.factive, i)
	}
	if len(e.factive) == 0 {
		return // nothing to allocate: the fold just advances the clock
	}

	// One weighted demand per task: all n×p connections of a task are
	// identical TCP flows with the same per-connection cap.
	files, conns := 0, 0
	demands := e.demands[:0]
	for _, i := range e.factive {
		set := e.snapshot(i)
		files += int(s.files[i])
		conns += int(s.conns[i])
		demands = append(demands, netsim.Demand{
			FlowID:    s.task[i].ID(),
			Resources: e.path,
			Cap:       e.perConnCap(set),
			RTT:       e.cfg.RTT,
			Weight:    int(s.conns[i]),
		})
	}
	e.demands = demands
	e.sumFiles, e.sumConns = files, conns

	e.snapCaps = e.contentionCaps()
	if err := e.net.AllocateDense(&e.alloc, demands); err != nil {
		// Demands are constructed internally; an error is a bug.
		panic(fmt.Sprintf("testbed: allocation failed: %v", err))
	}
	e.readAlloc()
}

// snapshot records slot i's allocation inputs and progress mirrors from
// its live task and returns the task's setting.
func (e *Engine) snapshot(i int32) transfer.Setting {
	s := &e.soa
	t := s.task[i]
	set := t.Setting()
	files := t.ActiveFiles()
	s.files[i] = int32(files)
	s.conns[i] = int32(files * set.Parallelism)
	s.q[i] = int32(set.Pipelining)
	s.cc[i] = int32(set.Concurrency)
	s.gen[i] = int32(t.Generation())
	s.remBytes[i] = t.BytesRemaining()
	s.remFiles[i] = int32(t.RemainingFiles())
	return set
}

// contentionCaps sets the four contention-dependent capacities from the
// snapshot's global thread and connection counts and returns them.
func (e *Engine) contentionCaps() [4]float64 {
	caps := [4]float64{
		e.cfg.SrcStore.EffectiveAggregate(e.sumFiles),
		e.cfg.DstStore.EffectiveAggregate(e.sumFiles),
		e.cfg.SrcHost.EffectiveCPU(e.sumConns),
		e.cfg.DstHost.EffectiveCPU(e.sumConns),
	}
	e.net.SetCapacity(resSrcStore, caps[0])
	e.net.SetCapacity(resDstStore, caps[1])
	e.net.SetCapacity(resSrcCPU, caps[2])
	e.net.SetCapacity(resDstCPU, caps[3])
	return caps
}

// readAlloc copies the per-connection allocation into the snapshot of
// every active slot.
func (e *Engine) readAlloc() {
	s := &e.soa
	for k, i := range e.factive {
		s.eqRate[i] = e.alloc.Rate[k]
		s.eqLoss[i] = e.alloc.Loss[k]
	}
}

// retune is the middle tier: only the factive positions in bumped had
// their generation moved (a SetSetting or an Extend), so it re-reads
// those slots' inputs, moves their demands between flow classes in
// place, recomputes the contention capacities from the updated integer
// sums, and refills the allocation unless no demand and none of
// snapCaps changed. It reports false when the allocator cannot make an
// edit in place; the snapshot is then partly updated, and the caller
// must take a full step, which rebuilds all of it.
func (e *Engine) retune() bool {
	s := &e.soa
	edited := false
	for _, k := range e.bumped {
		i := e.factive[k]
		e.sumFiles -= int(s.files[i])
		e.sumConns -= int(s.conns[i])
		set := e.snapshot(i)
		m := int(s.conns[i])
		e.sumFiles += int(s.files[i])
		e.sumConns += m
		d := &e.demands[k]
		if c := e.perConnCap(set); c != d.Cap || m != d.Weight {
			if !e.net.Retune(int(k), c, m) {
				return false
			}
			d.Cap, d.Weight = c, m
			edited = true
		}
	}
	if caps := e.contentionCaps(); edited || caps != e.snapCaps {
		e.net.Refill(&e.alloc)
		e.snapCaps = caps
		e.readAlloc()
	}
	return true
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

// tickTier is the kind of tick RunTicks takes next.
type tickTier int

const (
	tierFull tickTier = iota
	tierRetune
	tierReplay
)

// scanGenerations compares every snapshotted slot's generation with its
// live task's, to catch a SetSetting or Extend made since the snapshot.
// A moved drained slot (an Extend reviving it) needs a full step; moved
// active slots go to bumped for a retune tick; with none moved the
// snapshot replays as is.
func (e *Engine) scanGenerations() tickTier {
	s := &e.soa
	for _, i := range e.idle {
		if s.gen[i] != int32(s.task[i].Generation()) {
			return tierFull
		}
	}
	e.bumped = e.bumped[:0]
	for k, i := range e.factive {
		if s.gen[i] != int32(s.task[i].Generation()) {
			e.bumped = append(e.bumped, int32(k))
		}
	}
	if len(e.bumped) == 0 {
		return tierReplay
	}
	return tierRetune
}

// fold is the engine's one per-task advance, run by every tick of every
// tier over the snapshot: per active slot, the pipelining efficiency of
// the snapshotted allocation, the exponential approach to equilibrium,
// window accumulation, and the byte advance. All task state it reads
// comes positionally from the SoA arrays; the only call back into the
// task is Advance, whose completed-file count folds straight back into
// the mirrors. It marks the snapshot stale with causeHorizon when the
// tick crossed a file-count horizon (a task finished a file in a way
// that changes its ActiveFiles, or drained), and fresh otherwise.
func (e *Engine) fold(dt float64) {
	fUp, fDown := e.rampFactors(dt)
	changed := false
	s := &e.soa
	for _, i := range e.factive {
		eq := s.eqRate[i] * float64(s.conns[i])
		perFileRate := eq / float64(s.files[i])
		// Remaining mean file size from the positional mirrors: identical
		// to Task.RemainingMeanFileSize, which divides the same int64
		// counters.
		var mean float64
		if s.remFiles[i] > 0 {
			mean = float64(s.remBytes[i]) / float64(s.remFiles[i])
		}
		eq *= transfer.PipelineEfficiency(mean, perFileRate, e.cfg.RTT, int(s.q[i]))

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
	e.stale = fresh
	if changed {
		e.stale = causeHorizon
	}
}

// RunTicks advances up to k ticks of dt seconds each, every tick on the
// cheapest of three tiers that is exact: a full step when a task joined
// or left, a mutation is due or the last tick crossed a file-count
// horizon; a retune tick when the only change since the snapshot is
// that some tasks' generation moved (SetSetting or Extend between
// calls); otherwise a replay of the snapshot. All three end in the same
// fold. It returns after the tick on which a file-count horizon is
// crossed (a task finished a file in a way that changes its
// ActiveFiles, or completed), so drivers can run their per-event
// bookkeeping at exactly the time the always-tick loop would; the
// return value is the number of ticks actually executed. The tick
// sequence — and every per-task float operation within it — is
// identical to calling Step(dt) k times. It panics on non-positive dt
// (a driver bug); k ≤ 0 executes nothing.
func (e *Engine) RunTicks(k int, dt float64) int {
	if dt <= 0 {
		panic(fmt.Sprintf("testbed: RunTicks(dt=%v) must be positive", dt))
	}
	e.drained = e.drained[:0]
	consumed := 0
	// Generations are scanned once per call: every tier leaves the
	// snapshot's generations current, and nothing can retune a task
	// between the ticks of one RunTicks call.
	scanned := false
	for consumed < k {
		cause, tier := e.stale, tierFull
		if e.mutationDue() {
			cause = causeMutation
		} else if cause == fresh {
			// Only generations can have moved. A revival found by the
			// scan, or a retune the allocator refuses, falls back to a
			// full step.
			cause, tier = causeFallback, tierReplay
			if !scanned {
				tier = e.scanGenerations()
			}
		}
		scanned = true
		switch {
		case tier == tierReplay:
			e.ticks.Replay++
			e.fold(dt)
		case tier == tierRetune && e.retune():
			e.ticks.Retune++
			e.fold(dt)
		default:
			e.step(dt, cause)
		}
		consumed++
		if e.stale == causeHorizon {
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
// late-beyond-the-event in steady state; the fold checks the horizon
// every tick regardless, so the estimate affects macro-step sizing only,
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
