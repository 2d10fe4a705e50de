package testbed

import (
	"math"
	"math/bits"
	"slices"
)

// horizonQueue is a min-queue of event horizons keyed by simulated
// time, organised by distinct key: a binary min-heap of groups, one
// group per distinct key, each group an intrusive circular list of the
// handles armed at that key. Agents sample and retune once per epoch,
// so a fleet re-arms its deadlines at a handful of instants, and a loop
// head pops one group instead of sifting one heap entry per session.
//
// Handles are small dense integers chosen by the caller (the scheduler
// derives them from part indexes), so membership and links live in
// flat arrays, and a key finds its group through the last-pushed group
// or a linear-probing table over the key's bits — every operation is
// allocation-free. popDue returns handles in (key, handle) order: the
// scheduler arranges for ascending handle to mean "lower part index
// first, lifecycle before deadline", the order an always-tick loop
// visits parts, so identically-timed events stay deterministic.
type horizonQueue struct {
	// Per handle: grp[h] is h's group, -1 when absent; next/prev link
	// the members of one group into a circle.
	grp, next, prev []int32

	// Per group: key, heap position and first member. A free group's
	// head links the free list instead.
	key  []float64
	pos  []int32
	head []int32
	heap []int32 // groups in heap order

	// table maps a key's bits to its group (-1 empty), open-addressed
	// with linear probing; shift turns a 64-bit hash into a slot.
	table []int32
	shift uint8

	n      int    // handles present
	last   int32  // group of the last push, -1 if dropped
	free   int32  // head of the free-group list, -1 if empty
	used   int32  // groups ever handed out; ids ≥ used are fresh
	popped uint64 // groups popped by popDue
}

// horizonBlock is how many int32s a queue over n handles carves from
// its caller's block: six per-handle/per-group arrays of n plus the
// lookup table, a power of two at least 2n so probes stay short.
func horizonBlock(n int) int {
	t := 8
	for t < 2*n {
		t <<= 1
	}
	return 6*n + t
}

// carve lays the queue for len(keys) handles over ints, which must
// hold horizonBlock(len(keys)) int32s, and marks every handle absent.
func (q *horizonQueue) carve(ints []int32, keys []float64) {
	n := len(keys)
	q.grp = ints[0:n]
	q.next = ints[n : 2*n]
	q.prev = ints[2*n : 3*n]
	q.pos = ints[3*n : 4*n]
	q.head = ints[4*n : 5*n]
	q.heap = ints[5*n : 5*n : 6*n]
	q.table = ints[6*n : horizonBlock(n)]
	q.key = keys
	q.shift = uint8(64 - bits.Len(uint(len(q.table)-1)))
	for i := range q.grp {
		q.grp[i] = -1
	}
	for i := range q.table {
		q.table[i] = -1
	}
	q.last, q.free = -1, -1
}

// slot is key's home slot in the table: a Fibonacci hash of its bits.
func (q *horizonQueue) slot(key float64) int {
	return int((math.Float64bits(key) * 0x9E3779B97F4A7C15) >> q.shift)
}

// push arms handle at key, re-keying it if present.
func (q *horizonQueue) push(handle int32, key float64) {
	if key == 0 {
		key = 0 // −0 and +0 share one group
	}
	if g := q.grp[handle]; g >= 0 {
		if q.key[g] == key {
			return
		}
		q.unlink(handle, g)
	}
	g := q.last
	if g < 0 || q.key[g] != key {
		g = q.group(key)
		q.last = g
	}
	if h := q.head[g]; h < 0 {
		q.head[g] = handle
		q.next[handle], q.prev[handle] = handle, handle
	} else {
		t := q.prev[h]
		q.next[t], q.prev[handle] = handle, t
		q.next[handle], q.prev[h] = h, handle
	}
	q.grp[handle] = g
	q.n++
}

// group returns key's group, creating an empty one if the key is new.
func (q *horizonQueue) group(key float64) int32 {
	mask := len(q.table) - 1
	i := q.slot(key)
	for ; q.table[i] >= 0; i = (i + 1) & mask {
		if g := q.table[i]; q.key[g] == key {
			return g
		}
	}
	g := q.free
	if g >= 0 {
		q.free = q.head[g]
	} else {
		g = q.used
		q.used++
	}
	q.table[i] = g
	q.key[g], q.head[g] = key, -1
	q.pos[g] = int32(len(q.heap))
	q.heap = append(q.heap, g)
	q.up(q.pos[g])
	return g
}

// remove disarms handle if present; absent handles are a no-op (a
// session may finish with no pending leave entry, say).
func (q *horizonQueue) remove(handle int32) {
	if g := q.grp[handle]; g >= 0 {
		q.unlink(handle, g)
	}
}

// unlink takes handle out of its group g, dropping g if it empties.
func (q *horizonQueue) unlink(handle, g int32) {
	q.grp[handle] = -1
	q.n--
	nx := q.next[handle]
	if nx == handle {
		q.drop(g)
		return
	}
	pv := q.prev[handle]
	q.next[pv], q.prev[nx] = nx, pv
	if q.head[g] == handle {
		q.head[g] = nx
	}
}

// drop deletes group g from the heap and the table and frees it.
func (q *horizonQueue) drop(g int32) {
	i := q.pos[g]
	last := int32(len(q.heap) - 1)
	if i != last {
		q.swap(i, last)
	}
	q.heap = q.heap[:last]
	if i != last && !q.up(i) {
		q.down(i)
	}
	// Backward-shift deletion: close the hole by moving up any later
	// entry of the probe run whose home slot does not lie in (hole, j].
	mask := len(q.table) - 1
	hole := q.slot(q.key[g])
	for q.table[hole] != g {
		hole = (hole + 1) & mask
	}
	for j := hole; ; {
		j = (j + 1) & mask
		e := q.table[j]
		if e < 0 {
			break
		}
		if home := q.slot(q.key[e]); (j-home)&mask >= (j-hole)&mask {
			q.table[hole] = e
			hole = j
		}
	}
	q.table[hole] = -1
	q.head[g], q.free = q.free, g
	if q.last == g {
		q.last = -1
	}
}

// minKey returns the smallest key, or +Inf on an empty queue.
func (q *horizonQueue) minKey() float64 {
	if len(q.heap) == 0 {
		return math.Inf(1)
	}
	return q.key[q.heap[0]]
}

// popDue removes every handle whose key is ≤ now and appends them to
// buf in (key, handle) order: groups leave the heap in key order, and
// each group's members are sorted as they are appended.
func (q *horizonQueue) popDue(now float64, buf []int32) []int32 {
	for len(q.heap) > 0 {
		g := q.heap[0]
		if q.key[g] > now {
			break
		}
		start := len(buf)
		h0 := q.head[g]
		for h := h0; ; {
			buf = append(buf, h)
			q.grp[h] = -1
			if h = q.next[h]; h == h0 {
				break
			}
		}
		if len(buf)-start > 1 {
			slices.Sort(buf[start:])
		}
		q.n -= len(buf) - start
		q.popped++
		q.drop(g)
	}
	return buf
}

func (q *horizonQueue) less(a, b int32) bool { return q.key[a] < q.key[b] }

func (q *horizonQueue) up(i int32) bool {
	moved := false
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(q.heap[i], q.heap[p]) {
			break
		}
		q.swap(i, p)
		i = p
		moved = true
	}
	return moved
}

func (q *horizonQueue) down(i int32) {
	n := int32(len(q.heap))
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && q.less(q.heap[r], q.heap[l]) {
			m = r
		}
		if !q.less(q.heap[m], q.heap[i]) {
			return
		}
		q.swap(i, m)
		i = m
	}
}

func (q *horizonQueue) swap(i, j int32) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.pos[q.heap[i]] = i
	q.pos[q.heap[j]] = j
}
