// Package netsim implements the fluid network model underlying every
// simulated testbed: a set of capacity-constrained resources (network
// links, NICs, storage servers, host CPUs) shared by TCP-like flows.
//
// Two mechanisms give the model its fidelity to the paper's testbeds:
//
//  1. Max-min fair allocation. The paper's footnote 1 observes that
//     concurrent TCP streams with the same RTT obtain near-identical
//     throughput under the common congestion-control variants; the
//     progressive-filling (water-filling) algorithm computes exactly
//     that equilibrium, honouring per-flow caps (per-process I/O
//     limits) and every shared resource along each flow's path.
//
//  2. Mathis-model loss. At a saturated link, TCP's steady-state loss
//     rate follows p ≈ (MSS·√1.5 / (RTT·r))² for per-flow rate r, so
//     halving the per-flow share quadruples the loss rate — the
//     quadratic growth of packet loss with concurrency shown in the
//     paper's Figure 4.
//
// Allocation runs over flow *classes*, not individual flows: flows
// with an identical (resource path, cap, RTT) signature receive
// identical max-min shares and identical Mathis loss, so water-filling
// raises one rate per class weighted by the class's total flow count —
// O(distinct classes × resources) instead of O(flows × resources) —
// and the class results expand back to per-flow rates only at the
// boundary. Every arithmetic step is independent of how flows are
// grouped (weights are integer counts, so weight sums are exact, and
// per-resource charging happens once per fill level), which makes the
// aggregated allocation bit-identical to the textbook per-flow
// computation; the package tests keep that per-flow fill as the
// reference the class fill is checked against bitwise.
//
// The model is stateless in its observable behaviour: AllocateDense
// maps a set of flow demands to rates and loss estimates, and the same
// inputs always produce the same outputs. Internally the Network owns a
// scratch arena of integer-indexed buffers reused across calls — and a
// partition cache that survives across calls, revalidating and
// reassigning only the demands whose signature changed since the
// previous call (a join appends, a leave truncates, a retune adjusts
// one class's weight in place) — so the steady-state allocation path
// performs no heap allocations and no per-flow map operations; a
// Network is therefore not safe for concurrent use. A caller that
// knows which demands moved can skip even the prefix comparison:
// Retune edits one demand of the last call positionally and Refill
// water-fills the edited partition, with the same result as allocating
// the edited list. Time dynamics
// (slow-start ramping, measurement noise, task arrival/departure) live
// in package testbed.
package netsim

import (
	"fmt"
	"math"
	"sort"
)

// ResourceKind classifies a capacity constraint. Only Link resources
// produce packet loss; the others merely cap throughput (the paper's
// "sender-limited" case where loss stays zero, §3.1).
type ResourceKind int

const (
	// Link is a shared network link with an RTT and a loss response.
	Link ResourceKind = iota
	// NIC is a network interface card at an end host.
	NIC
	// Storage is a disk array or parallel file system server.
	Storage
	// CPU is end-host processing capacity.
	CPU
)

// String returns the kind's name.
func (k ResourceKind) String() string {
	switch k {
	case Link:
		return "link"
	case NIC:
		return "nic"
	case Storage:
		return "storage"
	case CPU:
		return "cpu"
	default:
		return fmt.Sprintf("ResourceKind(%d)", int(k))
	}
}

// Resource is a single capacity constraint, in bits per second.
type Resource struct {
	ID       string
	Kind     ResourceKind
	Capacity float64 // bits/s
}

// Demand describes one flow (one TCP connection) requesting bandwidth.
type Demand struct {
	// FlowID names the flow; it must be non-empty and unique within one
	// allocation call. Results are positional (see DenseAllocation).
	FlowID string
	// Resources lists the IDs of every resource the flow traverses.
	Resources []string
	// Cap is the flow's intrinsic rate limit in bits/s (per-process
	// I/O throttle divided across the file's streams, TCP window
	// limit, …). Use math.Inf(1) or a huge value for "unlimited".
	Cap float64
	// RTT is the flow's end-to-end round-trip time in seconds, used by
	// the loss model. Must be positive for flows crossing Link
	// resources.
	RTT float64
	// Weight is the number of identical flows this demand represents
	// (a task's n×p connections share one demand). Zero means 1. The
	// returned Rate and Loss are per individual flow.
	Weight int
}

// weight returns the effective flow multiplicity.
func (d *Demand) weight() float64 { return weightOf(d.Weight) }

// weightOf maps a Demand.Weight to its flow multiplicity: zero (and
// below) means 1.
func weightOf(w int) float64 {
	if w <= 0 {
		return 1
	}
	return float64(w)
}

// DenseAllocation is the result of a max-min computation, indexed by
// position: Rate[i] and Loss[i] belong to the i-th demand of the
// AllocateDense call (or Refill) that produced it. Positions rather
// than FlowID maps keep the fleet-scale path to two float stores per
// flow.
type DenseAllocation struct {
	// Rate is each flow's allocated rate in bits/s.
	Rate []float64
	// Loss is each flow's estimated packet-loss fraction in [0,1].
	Loss []float64
	// Saturated lists the IDs of resources whose capacity is fully
	// consumed, in sorted order.
	Saturated []string
}

// LossModel parameterises the Mathis loss response at saturated links.
type LossModel struct {
	// MSSBits is the TCP maximum segment size in bits (default 12000,
	// i.e. 1500 bytes).
	MSSBits float64
	// Scale multiplies the Mathis loss estimate; it absorbs constants
	// (queue behaviour, AIMD variant). Default 2.
	Scale float64
	// Base is the floor loss rate applied to every flow crossing a
	// Link, saturated or not (line noise). Default 1e-4.
	Base float64
	// Max clamps the loss estimate. Default 0.2.
	Max float64
}

// DefaultLossModel returns the loss parameters used by all testbeds:
// the equilibrium of loss-based congestion control (Reno/Cubic/HSTCP),
// whose fairness and loss response the paper's evaluation assumes.
func DefaultLossModel() LossModel {
	return LossModel{MSSBits: 12000, Scale: 2, Base: 1e-4, Max: 0.2}
}

// BBRLossModel returns loss parameters approximating BBR (the paper's
// §6 future work): a model-based controller probes the bottleneck
// bandwidth instead of filling queues until drop, so packet loss at a
// saturated link stays near the floor rather than growing with the
// flow count. Bandwidth sharing remains near max-min for equal-RTT
// flows, which BBRv2 approximates.
func BBRLossModel() LossModel {
	return LossModel{MSSBits: 12000, Scale: 0.15, Base: 1e-4, Max: 0.02}
}

// scratch is the Network-owned arena of reusable buffers for the
// allocation path. Buffers indexed by resource have length
// len(resList); buffers indexed by demand or class are resized per
// call. The arena makes the steady-state allocation path
// allocation-free at the cost of making Network unsafe for concurrent
// use.
type scratch struct {
	// Per-demand buffers.
	// resIdx holds every demand's resource indices flattened;
	// demand i's indices are resIdx[offsets[i]:offsets[i+1]].
	// Rebuilt only when the demand list's shape (IDs or paths)
	// changes; retunes reuse the previous call's translation.
	resIdx  []int
	offsets []int
	// classOf maps demand index → class index.
	classOf []int

	// Per-class buffers (parallel slices; lengths track clsCap). A
	// class is one distinct (resource path, cap, RTT) signature;
	// clsRes/clsOff hold each class's own copy of its path span, so
	// cached classes stay valid after the demand list they were
	// discovered from changes.
	clsCap   []float64
	clsRTT   []float64
	clsRes   []int
	clsOff   []int
	clsW     []float64 // Σ member weights (exact: weights are integers)
	clsCount []int     // member demand count (0 = stale cached class)
	rates    []float64 // water-fill output, one rate per class
	frozen   []bool
	clsLoss  []float64

	// Class hash table: open addressing, linear probing, power-of-two
	// size. tab holds class index + 1 (0 = empty slot).
	tab     []int32
	tabHash []uint64

	// Partition cache: the previous successful call's demand list. A
	// demand whose (FlowID, path, cap, RTT, weight) tuple matches its
	// previous-call counterpart needs no revalidation, no class
	// lookup, and no weight accounting — its contribution is already
	// in clsW. Only the changed suffix is reprocessed: the departed
	// demands' weights are subtracted (exact, integer-valued) and the
	// new ones added. Classes orphaned by a change stay in the table
	// with zero weight — harmless to the arithmetic — and are swept
	// out when they outnumber the live demand set.
	prevIDs    []string
	prevCaps   []uint64 // math.Float64bits of each demand's Cap
	prevRTTs   []uint64
	prevWI     []int
	prevResStr []string // flattened Resources, indexed by prevOff
	prevOff    []int
	prevN      int
	prevOK     bool

	// Per-resource buffers.
	remaining []float64
	weight    []float64
	exhausted []bool
	used      []float64
	sat       []bool
	fairShare []float64

	// Validation set, cleared on every full-validation call.
	seen map[string]bool
}

// growZero resizes s to n zeroed elements, reusing its backing array
// when it is large enough and otherwise at least doubling it (see
// grow).
func growZero[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	s = s[:n]
	clear(s)
	return s
}

// grow resizes s to n elements preserving existing content (unlike
// growZero); elements beyond the preserved prefix are unspecified and
// must be overwritten by the caller. A reallocation at least doubles
// the capacity, so the per-demand arrays of a fleet joining one session
// per full step are copied O(log n) times in all, not once per join.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		g := make([]T, n, max(n, 2*cap(s)))
		copy(g, s)
		return g
	}
	return s[:n]
}

// Network is a set of resources plus a loss model.
type Network struct {
	index   map[string]int // resource ID → index into resList
	resList []Resource
	loss    LossModel
	scr     scratch
	classes int // live class count of the most recent allocation
}

// New returns an empty network with the default loss model.
func New() *Network {
	// Presized for the 7-resource end-to-end path every testbed engine
	// builds, so short-lived engines (sweep points, benchmark bodies)
	// construct without incremental growth.
	return &Network{
		index:   make(map[string]int, 8),
		resList: make([]Resource, 0, 8),
		loss:    DefaultLossModel(),
		scr:     scratch{seen: make(map[string]bool, 8)},
	}
}

// SetLossModel replaces the loss model.
func (n *Network) SetLossModel(m LossModel) { n.loss = m }

// Classes returns the number of distinct flow classes in the most
// recent allocation (0 before any allocation call).
func (n *Network) Classes() int { return n.classes }

// AddResource registers a resource. It panics on duplicate IDs or
// non-positive capacity, both of which are programming errors in
// testbed construction.
func (n *Network) AddResource(r Resource) {
	if r.ID == "" {
		panic("netsim: resource with empty ID")
	}
	if r.Capacity <= 0 {
		panic(fmt.Sprintf("netsim: resource %q has non-positive capacity %v", r.ID, r.Capacity))
	}
	if _, dup := n.index[r.ID]; dup {
		panic(fmt.Sprintf("netsim: duplicate resource %q", r.ID))
	}
	n.index[r.ID] = len(n.resList)
	n.resList = append(n.resList, r)
}

// SetCapacity adjusts a resource's capacity (used by testbeds to model
// contention-dependent storage capacity). Every fill reads capacities
// afresh, so the next allocation call or Refill sees it. It panics if
// the resource does not exist or capacity is not positive.
func (n *Network) SetCapacity(id string, capacity float64) {
	i, ok := n.index[id]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown resource %q", id))
	}
	if capacity <= 0 {
		panic(fmt.Sprintf("netsim: resource %q capacity %v must be positive", id, capacity))
	}
	n.resList[i].Capacity = capacity
}

// AllocateDense computes the max-min fair allocation for the given
// demands and estimates per-flow loss, writing Rate[i] and Loss[i] for
// demands[i] into d, whose slices are reused across calls. It returns
// an error if any demand references an unknown resource, has an empty
// or duplicate FlowID, a non-positive cap or a negative weight.
func (n *Network) AllocateDense(d *DenseAllocation, demands []Demand) error {
	d.Saturated = d.Saturated[:0]
	if len(demands) == 0 {
		// No classes, and a partition cache that no longer describes
		// the previous call, so Retune refuses until the next call.
		d.Rate = d.Rate[:0]
		d.Loss = d.Loss[:0]
		n.classes = 0
		n.scr.prevOK = false
		return nil
	}
	if err := n.allocateCore(demands, &d.Saturated); err != nil {
		return err
	}
	n.expandDense(d)
	return nil
}

// expandDense writes the per-class results of the partition's prevN
// demands to d positionally.
func (n *Network) expandDense(d *DenseAllocation) {
	s := &n.scr
	d.Rate = grow(d.Rate, s.prevN)
	d.Loss = grow(d.Loss, s.prevN)
	for i := range d.Rate {
		c := s.classOf[i]
		d.Rate[i] = s.rates[c]
		d.Loss[i] = s.clsLoss[c]
	}
}

// Retune edits demand i of the most recent allocation call in place:
// its Cap and Weight become capacity and weight, its FlowID, path and
// RTT stay, and it moves between flow classes exactly as the next
// call's partition stage would move it (old contribution out of its
// class's weight, new one into the class of its new signature — exact,
// because weights are integers). Only the cached partition changes;
// Refill water-fills it. Retune reports false, changing nothing, when
// the edit cannot be made in place: there is no successful non-empty
// previous call, i is out of range, the cap is not positive, the weight
// is negative, or the demand needs a new class while stale classes are
// due for the sweep. The caller then allocates the edited demand list
// afresh, which gives the same result.
func (n *Network) Retune(i int, capacity float64, weight int) bool {
	s := &n.scr
	if !s.prevOK || i < 0 || i >= s.prevN || !(capacity > 0) || weight < 0 {
		return false
	}
	capBits := math.Float64bits(capacity)
	if capBits == s.prevCaps[i] && weight == s.prevWI[i] {
		return true
	}
	span := s.resIdx[s.offsets[i]:s.offsets[i+1]]
	rtt := math.Float64frombits(s.prevRTTs[i])
	c, _ := n.findClass(span, capBits, s.prevRTTs[i])
	if c < 0 {
		if len(s.clsCap)+1 > 2*s.prevN+16 {
			return false
		}
		n.ensureTable(len(s.clsCap) + 1)
		c = n.classFor(span, capacity, rtt)
	}
	old := s.classOf[i]
	s.clsW[old] -= weightOf(s.prevWI[i])
	s.clsCount[old]--
	s.clsW[c] += weightOf(weight)
	s.clsCount[c]++
	s.classOf[i] = c
	s.prevCaps[i] = capBits
	s.prevWI[i] = weight
	return true
}

// Refill water-fills the cached partition — the most recent allocation
// call's demand list with every Retune since applied — under the
// current capacities and writes the result to d exactly as
// AllocateDense over the edited list would. The class fill does not
// depend on class order and stale classes contribute nothing, so a
// fresh Network gives the same bits. It panics without a live
// partition (a caller that skipped Retune's refusal).
func (n *Network) Refill(d *DenseAllocation) {
	s := &n.scr
	if !s.prevOK {
		panic("netsim: Refill without a live partition")
	}
	d.Saturated = d.Saturated[:0]
	n.fill(&d.Saturated)
	n.expandDense(d)
}

// allocateCore validates the demands, partitions them into flow
// classes (reusing the previous call's work for every unchanged
// demand), water-fills over the classes, and leaves per-class rates
// and losses in the scratch arena for the caller to expand. Saturated
// resource IDs are appended to satOut in sorted order.
func (n *Network) allocateCore(demands []Demand, satOut *[]string) error {
	s := &n.scr
	nd := len(demands)

	// Stage 1: longest unchanged prefix against the previous call.
	// Demands in the prefix are already validated, already assigned to
	// their class, and their weight contributions are already in clsW.
	wasOK := s.prevOK
	s.prevOK = false
	k := 0
	if wasOK {
		maxK := nd
		if s.prevN < maxK {
			maxK = s.prevN
		}
	prefix:
		for k < maxK {
			d := &demands[k]
			if d.FlowID != s.prevIDs[k] ||
				math.Float64bits(d.Cap) != s.prevCaps[k] ||
				math.Float64bits(d.RTT) != s.prevRTTs[k] ||
				d.Weight != s.prevWI[k] {
				break
			}
			span := s.prevResStr[s.prevOff[k]:s.prevOff[k+1]]
			if len(d.Resources) != len(span) {
				break
			}
			for j := range span {
				if d.Resources[j] != span[j] {
					break prefix
				}
			}
			k++
		}
	}

	// Stage 2: validate the changed suffix. A retune (same IDs and
	// paths, only caps/RTTs/weights changed) inherits the previous
	// call's duplicate check and resource translation; any shape
	// change (join, leave, reorder) rebuilds resIdx with full
	// validation.
	retune := wasOK && nd == s.prevN
	if retune {
	suffix:
		for i := k; i < nd; i++ {
			d := &demands[i]
			if d.FlowID != s.prevIDs[i] {
				retune = false
				break
			}
			span := s.prevResStr[s.prevOff[i]:s.prevOff[i+1]]
			if len(d.Resources) != len(span) {
				retune = false
				break
			}
			for j := range span {
				if d.Resources[j] != span[j] {
					retune = false
					break suffix
				}
			}
		}
	}
	if retune {
		for i := k; i < nd; i++ {
			d := &demands[i]
			if d.Cap <= 0 {
				return fmt.Errorf("netsim: flow %q has non-positive cap %v", d.FlowID, d.Cap)
			}
			if d.Weight < 0 {
				return fmt.Errorf("netsim: flow %q has negative weight %d", d.FlowID, d.Weight)
			}
		}
	} else {
		clear(s.seen)
		s.resIdx = s.resIdx[:0]
		s.offsets = s.offsets[:0]
		if cap(s.offsets) < nd+1 {
			s.offsets = make([]int, 0, max(nd+1, 2*cap(s.offsets)))
		}
		s.offsets = append(s.offsets, 0)
		for i := range demands {
			d := &demands[i]
			if d.FlowID == "" {
				return fmt.Errorf("netsim: demand %d has empty FlowID", i)
			}
			if s.seen[d.FlowID] {
				return fmt.Errorf("netsim: duplicate FlowID %q", d.FlowID)
			}
			s.seen[d.FlowID] = true
			if d.Cap <= 0 {
				return fmt.Errorf("netsim: flow %q has non-positive cap %v", d.FlowID, d.Cap)
			}
			if d.Weight < 0 {
				return fmt.Errorf("netsim: flow %q has negative weight %d", d.FlowID, d.Weight)
			}
			for _, rid := range d.Resources {
				ri, ok := n.index[rid]
				if !ok {
					return fmt.Errorf("netsim: flow %q references unknown resource %q", d.FlowID, rid)
				}
				s.resIdx = append(s.resIdx, ri)
			}
			s.offsets = append(s.offsets, len(s.resIdx))
		}
	}

	// Stage 3: partition bookkeeping. Sweep stale classes once they
	// outnumber the live demand set; the rebuild below then reassigns
	// every demand.
	if len(s.clsCap) > 2*nd+16 {
		n.resetClasses()
		wasOK = false
		k = 0
	}
	n.ensureTable(len(s.clsCap) + (nd - k))
	if wasOK {
		// Subtract the departed/changed demands' contributions before
		// their classOf entries are overwritten. Weights are
		// integer-valued, so subtract-then-add reproduces the
		// from-scratch sums exactly.
		for i := k; i < s.prevN; i++ {
			c := s.classOf[i]
			s.clsW[c] -= weightOf(s.prevWI[i])
			s.clsCount[c]--
		}
	} else {
		s.clsW = growZero(s.clsW, len(s.clsCap))
		s.clsCount = growZero(s.clsCount, len(s.clsCap))
		k = 0
	}
	s.classOf = grow(s.classOf, nd)
	for i := k; i < nd; i++ {
		d := &demands[i]
		c := n.classFor(s.resIdx[s.offsets[i]:s.offsets[i+1]], d.Cap, d.RTT)
		s.classOf[i] = c
		s.clsW[c] += d.weight()
		s.clsCount[c]++
	}

	// Stage 4: snapshot the changed suffix for the next call's prefix
	// comparison (the prefix entries are already equal).
	s.prevIDs = grow(s.prevIDs, nd)
	s.prevCaps = grow(s.prevCaps, nd)
	s.prevRTTs = grow(s.prevRTTs, nd)
	s.prevWI = grow(s.prevWI, nd)
	for i := k; i < nd; i++ {
		d := &demands[i]
		s.prevIDs[i] = d.FlowID
		s.prevCaps[i] = math.Float64bits(d.Cap)
		s.prevRTTs[i] = math.Float64bits(d.RTT)
		s.prevWI[i] = d.Weight
	}
	if !retune {
		s.prevResStr = s.prevResStr[:0]
		for i := range demands {
			s.prevResStr = append(s.prevResStr, demands[i].Resources...)
		}
		s.prevOff = append(s.prevOff[:0], s.offsets...)
	}
	s.prevN = nd
	s.prevOK = true

	n.fill(satOut)
	return nil
}

// fill water-fills the partition's classes under the current
// capacities and derives the saturated resources (appended to satOut
// in sorted order) and each live class's loss, leaving per-class rates
// and losses in the scratch arena.
func (n *Network) fill(satOut *[]string) {
	s := &n.scr
	nc := len(s.clsCap)
	n.classWaterFill(nc)

	live := 0
	for c := 0; c < nc; c++ {
		if s.clsCount[c] > 0 {
			live++
		}
	}
	n.classes = live

	// Determine saturated resources from the final allocation. Usage is
	// derived from the water-fill's remaining headroom, which was
	// charged once per resource per fill level, so the computation is
	// independent of how flows are grouped into classes.
	nr := len(n.resList)
	s.used = growZero(s.used, nr)
	for ri := range s.used {
		s.used[ri] = n.resList[ri].Capacity - s.remaining[ri]
	}
	const satTol = 1e-6
	s.sat = growZero(s.sat, nr)
	for ri, u := range s.used {
		if u >= n.resList[ri].Capacity*(1-satTol) {
			s.sat[ri] = true
			*satOut = append(*satOut, n.resList[ri].ID)
		}
	}
	sort.Strings(*satOut)

	// Per saturated link, the fair share is the largest per-flow rate
	// among the flows crossing it: the rate the link's own congestion
	// feedback imposes on flows it actually limits.
	s.fairShare = growZero(s.fairShare, nr)
	for c := 0; c < nc; c++ {
		if s.clsCount[c] == 0 {
			continue
		}
		for _, ri := range s.clsRes[s.clsOff[c]:s.clsOff[c+1]] {
			if s.sat[ri] && s.rates[c] > s.fairShare[ri] {
				s.fairShare[ri] = s.rates[c]
			}
		}
	}

	// Loss, once per class: flows pushing a saturated Link at its fair
	// share experience Mathis-model loss for their allocated rate;
	// flows that are rate-limited elsewhere (rate strictly below the
	// link fair share) do not fill the queue and see only the base loss
	// floor, as do all flows on unsaturated links.
	const fsTol = 1e-6
	s.clsLoss = growZero(s.clsLoss, nc)
	for c := 0; c < nc; c++ {
		if s.clsCount[c] == 0 {
			continue
		}
		loss := 0.0
		crossesLink := false
		for _, ri := range s.clsRes[s.clsOff[c]:s.clsOff[c+1]] {
			r := &n.resList[ri]
			if r.Kind != Link {
				continue
			}
			crossesLink = true
			if !s.sat[ri] {
				continue
			}
			if s.rates[c] < s.fairShare[ri]*(1-fsTol) {
				// Cap-limited below the link's fair share: only base
				// loss from this link.
				continue
			}
			if l := n.mathisLoss(s.clsRTT[c], s.rates[c]); l > loss {
				loss = l
			}
		}
		if crossesLink {
			loss += n.loss.Base
		}
		if loss > n.loss.Max {
			loss = n.loss.Max
		}
		s.clsLoss[c] = loss
	}
}

// resetClasses drops every cached class and invalidates the partition
// cache, forcing the next allocation to rebuild from scratch.
func (n *Network) resetClasses() {
	s := &n.scr
	s.clsCap = s.clsCap[:0]
	s.clsRTT = s.clsRTT[:0]
	s.clsRes = s.clsRes[:0]
	s.clsOff = s.clsOff[:0]
	s.clsW = s.clsW[:0]
	s.clsCount = s.clsCount[:0]
	clear(s.tab)
	s.prevOK = false
}

// sigHash hashes one demand signature (path span, cap bits, RTT bits)
// with FNV-1a over 64-bit words.
func sigHash(span []int, capBits, rttBits uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, ri := range span {
		h ^= uint64(ri)
		h *= prime64
	}
	h ^= capBits
	h *= prime64
	h ^= rttBits
	h *= prime64
	return h
}

// ensureTable (re)builds the class hash table when it cannot hold need
// classes at ≤50% load, reinserting the cached classes.
func (n *Network) ensureTable(need int) {
	s := &n.scr
	if len(s.tab) >= 2*(need+1) {
		return
	}
	size := 16
	for size < 4*(need+1) {
		size *= 2
	}
	if cap(s.tab) >= size {
		s.tab = s.tab[:size]
		clear(s.tab)
		s.tabHash = s.tabHash[:size]
	} else {
		s.tab = make([]int32, size)
		s.tabHash = make([]uint64, size)
	}
	mask := uint64(size - 1)
	for c := range s.clsCap {
		h := sigHash(s.clsRes[s.clsOff[c]:s.clsOff[c+1]], math.Float64bits(s.clsCap[c]), math.Float64bits(s.clsRTT[c]))
		j := h & mask
		for s.tab[j] != 0 {
			j = (j + 1) & mask
		}
		s.tab[j] = int32(c + 1)
		s.tabHash[j] = h
	}
}

// findClass looks the signature (span, cap bits, RTT bits) up in the
// class table. It returns the class index, or -1 and the empty table
// slot where the signature would be inserted.
func (n *Network) findClass(span []int, capBits, rttBits uint64) (c int, slot uint64) {
	s := &n.scr
	h := sigHash(span, capBits, rttBits)
	mask := uint64(len(s.tab) - 1)
	j := h & mask
	for s.tab[j] != 0 {
		if s.tabHash[j] == h {
			c := int(s.tab[j]) - 1
			if math.Float64bits(s.clsCap[c]) == capBits && math.Float64bits(s.clsRTT[c]) == rttBits {
				cspan := s.clsRes[s.clsOff[c]:s.clsOff[c+1]]
				if len(cspan) == len(span) {
					match := true
					for k := range span {
						if cspan[k] != span[k] {
							match = false
							break
						}
					}
					if match {
						return c, j
					}
				}
			}
		}
		j = (j + 1) & mask
	}
	return -1, j
}

// classFor returns the class index of the signature (span, cap, rtt),
// appending a new class when it is unseen. The table must have headroom
// for one insertion (ensured by partition stage 3, or by Retune).
func (n *Network) classFor(span []int, capacity, rtt float64) int {
	s := &n.scr
	capBits := math.Float64bits(capacity)
	rttBits := math.Float64bits(rtt)
	c, j := n.findClass(span, capBits, rttBits)
	if c >= 0 {
		return c
	}
	c = len(s.clsCap)
	s.clsCap = append(s.clsCap, capacity)
	s.clsRTT = append(s.clsRTT, rtt)
	if len(s.clsOff) == 0 {
		s.clsOff = append(s.clsOff, 0)
	}
	s.clsRes = append(s.clsRes, span...)
	s.clsOff = append(s.clsOff, len(s.clsRes))
	s.clsW = append(s.clsW, 0)
	s.clsCount = append(s.clsCount, 0)
	s.tab[j] = int32(c + 1)
	s.tabHash[j] = sigHash(span, capBits, rttBits)
	return c
}

// classWaterFill runs progressive filling over the nc flow classes:
// raise all unfrozen classes' rates in lockstep until a resource
// saturates or a class hits its cap; freeze the affected classes;
// repeat. Each resource is charged once per fill level with the exact
// integer sum of its active flow weights, so the computation — and
// every float it produces — is identical whether flows arrive as
// aggregated classes or one class each. Stale cached classes (zero
// members) start frozen and contribute nothing. Results land in the
// scratch rates/remaining buffers.
func (n *Network) classWaterFill(nc int) {
	nr := len(n.resList)
	s := &n.scr
	s.rates = growZero(s.rates, nc)
	s.frozen = growZero(s.frozen, nc)
	for c := 0; c < nc; c++ {
		s.frozen[c] = s.clsCount[c] == 0
	}
	s.remaining = growZero(s.remaining, nr)
	s.weight = growZero(s.weight, nr)
	s.exhausted = growZero(s.exhausted, nr)
	for ri := range n.resList {
		s.remaining[ri] = n.resList[ri].Capacity
	}

	for iter := 0; iter < nc+nr+1; iter++ {
		// Active weight per resource.
		clear(s.weight)
		for c := 0; c < nc; c++ {
			if s.frozen[c] {
				continue
			}
			w := s.clsW[c]
			for _, ri := range s.clsRes[s.clsOff[c]:s.clsOff[c+1]] {
				s.weight[ri] += w
			}
		}
		// Smallest headroom increment across resources and caps.
		inc := math.Inf(1)
		for ri, w := range s.weight {
			if w == 0 {
				continue
			}
			if h := s.remaining[ri] / w; h < inc {
				inc = h
			}
		}
		anyActive := false
		for c := 0; c < nc; c++ {
			if s.frozen[c] {
				continue
			}
			anyActive = true
			if h := s.clsCap[c] - s.rates[c]; h < inc {
				inc = h
			}
		}
		if !anyActive {
			break
		}
		if inc < 0 {
			inc = 0
		}
		// Raise all active classes by inc and charge the resources.
		for c := 0; c < nc; c++ {
			if !s.frozen[c] {
				s.rates[c] += inc
			}
		}
		for ri, w := range s.weight {
			if w > 0 {
				s.remaining[ri] -= inc * w
			}
		}
		// Freeze classes that hit their cap or traverse an exhausted
		// resource.
		const tol = 1e-9
		for ri, w := range s.weight {
			s.exhausted[ri] = w > 0 && s.remaining[ri] <= tol*n.resList[ri].Capacity
		}
		progressed := false
		for c := 0; c < nc; c++ {
			if s.frozen[c] {
				continue
			}
			if s.rates[c] >= s.clsCap[c]-tol*s.clsCap[c] {
				s.frozen[c] = true
				progressed = true
				continue
			}
			for _, ri := range s.clsRes[s.clsOff[c]:s.clsOff[c+1]] {
				if s.exhausted[ri] {
					s.frozen[c] = true
					progressed = true
					break
				}
			}
		}
		if !progressed && inc == 0 {
			// Nothing can advance: freeze everything still active to
			// guarantee termination (degenerate zero-headroom state).
			for c := range s.frozen {
				s.frozen[c] = true
			}
		}
	}
}

// mathisLoss inverts the Mathis throughput relation
// r = MSS/RTT · √(1.5/p) to estimate the equilibrium loss probability a
// TCP flow sustains while obtaining rate r across a saturated link.
func (n *Network) mathisLoss(rtt, rate float64) float64 {
	if rtt <= 0 || rate <= 0 {
		return n.loss.Max
	}
	x := n.loss.Scale * n.loss.MSSBits * math.Sqrt(1.5) / (rtt * rate)
	p := x * x
	if p > n.loss.Max {
		p = n.loss.Max
	}
	return p
}
