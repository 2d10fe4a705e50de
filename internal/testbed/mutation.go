package testbed

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
)

// MutationKind enumerates the dynamic-network disturbances an Engine
// can apply mid-run: the elastic conditions (competing traffic, link
// degradation, growing datasets) that motivate online rather than
// offline tuning.
type MutationKind int

const (
	// MutLinkCapacity sets the network path capacity to Capacity
	// bits/s. Cross-traffic waves compile to a set/restore pair of
	// these.
	MutLinkCapacity MutationKind = iota
	// MutRTT sets the end-to-end round-trip time to RTT seconds. Safe
	// mid-run because the allocator's flow-class key carries an RTT
	// signature, so classes re-partition on the next allocation.
	MutRTT
	// MutSrcStore adjusts the source store: Capacity replaces the
	// aggregate cap and PerProc the per-process cap; zero keeps the
	// current value.
	MutSrcStore
	// MutDstStore adjusts the destination store the same way.
	MutDstStore
	// MutGrowDataset appends Files to task Task's dataset mid-transfer
	// (copy-on-write; other tasks sharing the dataset are unaffected).
	// Growing a task that already finished or left is a no-op.
	MutGrowDataset
)

// String names the kind for error messages and logs.
func (k MutationKind) String() string {
	switch k {
	case MutLinkCapacity:
		return "link-capacity"
	case MutRTT:
		return "rtt"
	case MutSrcStore:
		return "src-store"
	case MutDstStore:
		return "dst-store"
	case MutGrowDataset:
		return "grow-dataset"
	}
	return fmt.Sprintf("MutationKind(%d)", int(k))
}

// Mutation is one timed change to the engine's environment. Mutations
// are applied at the top of the first full step whose start time has
// reached At — before demands are rebuilt — so the tick covering
// [At, At+tick) already runs under the new conditions, identically in
// batched stepping and a per-tick Step loop (a due mutation disqualifies
// the fast replay path, forcing that full step).
type Mutation struct {
	// At is the simulated time in seconds at which the change takes
	// effect.
	At float64
	// Kind selects which fields below are meaningful.
	Kind MutationKind
	// Capacity is the new link capacity (MutLinkCapacity) or store
	// aggregate capacity (MutSrcStore/MutDstStore; 0 keeps current) in
	// bits/s.
	Capacity float64
	// PerProc is the new store per-process cap in bits/s
	// (MutSrcStore/MutDstStore; 0 keeps current).
	PerProc float64
	// RTT is the new round-trip time in seconds (MutRTT).
	RTT float64
	// Task is the target task ID (MutGrowDataset).
	Task string
	// Count and Size are the appended batch (MutGrowDataset): Count
	// more files of Size bytes each.
	Count int
	Size  int64

	// seq breaks At ties by scheduling order, so equal-time mutations
	// apply deterministically in the order they were scheduled.
	seq int
}

// validate checks a mutation's fields for its kind.
func (m *Mutation) validate() error {
	if math.IsNaN(m.At) || math.IsInf(m.At, 0) || m.At < 0 {
		return fmt.Errorf("testbed: mutation at %v must be a finite non-negative time", m.At)
	}
	switch m.Kind {
	case MutLinkCapacity:
		if m.Capacity <= 0 || math.IsNaN(m.Capacity) || math.IsInf(m.Capacity, 0) {
			return fmt.Errorf("testbed: link-capacity mutation at %v: capacity %v must be positive and finite", m.At, m.Capacity)
		}
	case MutRTT:
		if m.RTT <= 0 || math.IsNaN(m.RTT) || math.IsInf(m.RTT, 0) {
			return fmt.Errorf("testbed: rtt mutation at %v: rtt %v must be positive and finite", m.At, m.RTT)
		}
	case MutSrcStore, MutDstStore:
		if m.Capacity == 0 && m.PerProc == 0 {
			return fmt.Errorf("testbed: %s mutation at %v changes nothing", m.Kind, m.At)
		}
		if m.Capacity < 0 || math.IsNaN(m.Capacity) || math.IsInf(m.Capacity, 0) {
			return fmt.Errorf("testbed: %s mutation at %v: aggregate capacity %v must be non-negative and finite", m.Kind, m.At, m.Capacity)
		}
		if m.PerProc < 0 || math.IsNaN(m.PerProc) || math.IsInf(m.PerProc, 0) {
			return fmt.Errorf("testbed: %s mutation at %v: per-process cap %v must be non-negative and finite", m.Kind, m.At, m.PerProc)
		}
	case MutGrowDataset:
		if m.Task == "" {
			return fmt.Errorf("testbed: grow-dataset mutation at %v has no task", m.At)
		}
		if _, ok := dataset.BatchBytes(m.Count, m.Size); !ok {
			return fmt.Errorf("testbed: grow-dataset mutation at %v for %q: %d files of %d bytes must be ≥ 1 each and fit int64",
				m.At, m.Task, m.Count, m.Size)
		}
	default:
		return fmt.Errorf("testbed: unknown mutation kind %d", int(m.Kind))
	}
	return nil
}

// ScheduleMutation queues a timed environment change. Mutations may be
// scheduled before or during a run, in any order; the engine applies
// them sorted by (At, scheduling order). A mutation whose time has
// already passed applies at the top of the next full step. It returns
// an error for invalid fields and leaves the schedule unchanged.
func (e *Engine) ScheduleMutation(m Mutation) error {
	if err := m.validate(); err != nil {
		return err
	}
	m.seq = e.mutSeq
	e.mutSeq++
	// Insert into the pending region keeping (At, seq) order; the
	// consumed prefix muts[:mutNext] is never revisited.
	i := e.mutNext + sort.Search(len(e.muts)-e.mutNext, func(j int) bool {
		return e.muts[e.mutNext+j].At > m.At
	})
	e.muts = append(e.muts, Mutation{})
	copy(e.muts[i+1:], e.muts[i:])
	e.muts[i] = m
	return nil
}

// NextMutation returns the simulated time of the earliest pending
// mutation, or +Inf when none remain.
func (e *Engine) NextMutation() float64 {
	if e.mutNext < len(e.muts) {
		return e.muts[e.mutNext].At
	}
	return math.Inf(1)
}

// mutationDue reports whether a pending mutation's time has been
// reached. RunTicks checks it before every tick, so a due mutation —
// one scheduled in the past included — forces the next tick through a
// full step, where applyDueMutations runs.
func (e *Engine) mutationDue() bool {
	return e.mutNext < len(e.muts) && e.muts[e.mutNext].At <= e.now
}

// applyDueMutations applies every pending mutation whose time has been
// reached, in (At, scheduling) order. It runs at the top of a full
// step, so the step's refresh allocates under the new conditions.
func (e *Engine) applyDueMutations() {
	for e.mutNext < len(e.muts) && e.muts[e.mutNext].At <= e.now {
		m := &e.muts[e.mutNext]
		e.mutNext++
		switch m.Kind {
		case MutLinkCapacity:
			e.cfg.LinkCapacity = m.Capacity
			e.net.SetCapacity(resLink, m.Capacity)
		case MutRTT:
			e.cfg.RTT = m.RTT
		case MutSrcStore:
			if m.Capacity > 0 {
				e.cfg.SrcStore.AggregateCap = m.Capacity
			}
			if m.PerProc > 0 {
				e.cfg.SrcStore.PerProcCap = m.PerProc
			}
		case MutDstStore:
			if m.Capacity > 0 {
				e.cfg.DstStore.AggregateCap = m.Capacity
			}
			if m.PerProc > 0 {
				e.cfg.DstStore.PerProcCap = m.PerProc
			}
		case MutGrowDataset:
			t := e.Task(m.Task)
			if t == nil {
				// The task finished or left before the growth arrived;
				// scenario semantics make this a no-op, not an error.
				continue
			}
			if err := t.Extend(m.Count, m.Size); err != nil {
				// Scenario validation rejects a growth that overflows
				// the task's totals up front, so a failure here is a
				// driver bug.
				panic(fmt.Sprintf("testbed: grow-dataset mutation at %v for %q: %v", m.At, m.Task, err))
			}
		}
	}
}
