package netsim

import (
	"math"
	"sort"
)

// perFlowAllocate is the reference the class-aggregated allocator is
// checked against bitwise: the textbook max-min progressive fill, one
// rate per flow, with no partition, no cache and no scratch arena. Each
// fill level charges every resource once with the exact integer sum of
// its unfrozen flows' weights; a resource is saturated when its
// remaining headroom says it is used up; a saturated link's fair share
// is the largest rate among the flows crossing it; and Mathis loss is
// applied per flow. The demands must be valid.
func perFlowAllocate(n *Network, demands []Demand) *DenseAllocation {
	nd, nr := len(demands), len(n.resList)
	paths := make([][]int, nd)
	for i := range demands {
		for _, id := range demands[i].Resources {
			paths[i] = append(paths[i], n.index[id])
		}
	}
	rate := make([]float64, nd)
	frozen := make([]bool, nd)
	remaining := make([]float64, nr)
	for ri := range n.resList {
		remaining[ri] = n.resList[ri].Capacity
	}

	const tol = 1e-9
	for {
		weight := make([]float64, nr)
		active := false
		for i := range demands {
			if frozen[i] {
				continue
			}
			active = true
			for _, ri := range paths[i] {
				weight[ri] += demands[i].weight()
			}
		}
		if !active {
			break
		}
		// The fill level rises until a resource runs out of headroom or
		// a flow reaches its cap.
		inc := math.Inf(1)
		for ri, w := range weight {
			if w > 0 && remaining[ri]/w < inc {
				inc = remaining[ri] / w
			}
		}
		for i := range demands {
			if h := demands[i].Cap - rate[i]; !frozen[i] && h < inc {
				inc = h
			}
		}
		inc = math.Max(inc, 0)
		for i := range demands {
			if !frozen[i] {
				rate[i] += inc
			}
		}
		exhausted := make([]bool, nr)
		for ri, w := range weight {
			if w > 0 {
				remaining[ri] -= inc * w
				exhausted[ri] = remaining[ri] <= tol*n.resList[ri].Capacity
			}
		}
		progressed := false
		for i := range demands {
			if frozen[i] {
				continue
			}
			if rate[i] >= demands[i].Cap-tol*demands[i].Cap {
				frozen[i] = true
			}
			for _, ri := range paths[i] {
				frozen[i] = frozen[i] || exhausted[ri]
			}
			progressed = progressed || frozen[i]
		}
		if !progressed && inc == 0 {
			break // zero headroom everywhere: nothing can rise
		}
	}

	alloc := &DenseAllocation{Rate: make([]float64, nd), Loss: make([]float64, nd)}
	sat := make([]bool, nr)
	for ri, r := range n.resList {
		if r.Capacity-remaining[ri] >= r.Capacity*(1-1e-6) {
			sat[ri] = true
			alloc.Saturated = append(alloc.Saturated, r.ID)
		}
	}
	sort.Strings(alloc.Saturated)
	fairShare := make([]float64, nr)
	for i := range demands {
		for _, ri := range paths[i] {
			if sat[ri] && rate[i] > fairShare[ri] {
				fairShare[ri] = rate[i]
			}
		}
	}
	lm := n.loss
	for i, d := range demands {
		loss, crossesLink := 0.0, false
		for _, ri := range paths[i] {
			if n.resList[ri].Kind != Link {
				continue
			}
			crossesLink = true
			if !sat[ri] || rate[i] < fairShare[ri]*(1-1e-6) {
				continue // cap-limited below the link's share: base loss only
			}
			// Mathis: r = MSS/RTT · √(1.5/p), solved for p.
			p := lm.Max
			if d.RTT > 0 && rate[i] > 0 {
				x := lm.Scale * lm.MSSBits * math.Sqrt(1.5) / (d.RTT * rate[i])
				p = math.Min(x*x, lm.Max)
			}
			loss = math.Max(loss, p)
		}
		if crossesLink {
			loss += lm.Base
		}
		alloc.Rate[i] = rate[i]
		alloc.Loss[i] = math.Min(loss, lm.Max)
	}
	return alloc
}
