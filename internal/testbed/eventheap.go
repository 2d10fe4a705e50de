package testbed

import "math"

// horizonHeap is an indexed binary min-heap of event horizons keyed by
// simulated time. Handles are small dense integers chosen by the
// caller (the scheduler derives them from part indexes), so membership
// and heap position live in flat arrays instead of maps and every
// operation after init is allocation-free. Ties break toward the lower
// handle, which the scheduler arranges to mean "lower part index
// first, lifecycle before deadline" — the order an always-tick loop
// visits parts — so identically-timed events stay deterministic.
type horizonHeap struct {
	key  []float64 // key[h]: horizon time of handle h, valid while pos[h] >= 0
	heap []int32   // handles in heap order
	pos  []int32   // pos[h]: index of h in heap, -1 when absent
}

// init sizes the heap for handles 0..n-1 and marks all absent.
func (h *horizonHeap) init(n int) {
	h.key = make([]float64, n)
	h.heap = make([]int32, 0, n)
	h.pos = make([]int32, n)
	for i := range h.pos {
		h.pos[i] = -1
	}
}

func (h *horizonHeap) len() int { return len(h.heap) }

// less orders entries by (key, handle).
func (h *horizonHeap) less(a, b int32) bool {
	ka, kb := h.key[a], h.key[b]
	return ka < kb || (ka == kb && a < b)
}

// push inserts handle with the given key, or re-keys it if present.
func (h *horizonHeap) push(handle int32, key float64) {
	if h.pos[handle] >= 0 {
		h.update(handle, key)
		return
	}
	h.key[handle] = key
	h.pos[handle] = int32(len(h.heap))
	h.heap = append(h.heap, handle)
	h.up(h.pos[handle])
}

// update re-keys a present handle and restores heap order.
func (h *horizonHeap) update(handle int32, key float64) {
	h.key[handle] = key
	i := h.pos[handle]
	if !h.up(i) {
		h.down(i)
	}
}

// remove deletes handle if present; absent handles are a no-op (a
// session may finish with no pending leave entry, say).
func (h *horizonHeap) remove(handle int32) {
	i := h.pos[handle]
	if i < 0 {
		return
	}
	last := int32(len(h.heap) - 1)
	if i != last {
		h.swap(i, last)
	}
	h.heap = h.heap[:last]
	h.pos[handle] = -1
	if i != last {
		if !h.up(i) {
			h.down(i)
		}
	}
}

// minKey returns the smallest key, or +Inf on an empty heap.
func (h *horizonHeap) minKey() float64 {
	if len(h.heap) == 0 {
		return math.Inf(1)
	}
	return h.key[h.heap[0]]
}

// popDue removes every handle whose key is ≤ now and appends it to
// buf. The returned handles are in heap pop order — callers that need
// part order sort them.
func (h *horizonHeap) popDue(now float64, buf []int32) []int32 {
	for len(h.heap) > 0 {
		top := h.heap[0]
		if h.key[top] > now {
			break
		}
		buf = append(buf, top)
		h.remove(top)
	}
	return buf
}

func (h *horizonHeap) up(i int32) bool {
	moved := false
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.heap[i], h.heap[p]) {
			break
		}
		h.swap(i, p)
		i = p
		moved = true
	}
	return moved
}

func (h *horizonHeap) down(i int32) {
	n := int32(len(h.heap))
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(h.heap[r], h.heap[l]) {
			m = r
		}
		if !h.less(h.heap[m], h.heap[i]) {
			return
		}
		h.swap(i, m)
		i = m
	}
}

func (h *horizonHeap) swap(i, j int32) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i
	h.pos[h.heap[j]] = j
}
