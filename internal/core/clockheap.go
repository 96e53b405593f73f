package core

// The deterministic interleaver's CPU chooser. PR 3's linear min-clock
// scan (chooseCPUScan, kept in clockheap_test.go as the oracle) is
// O(n) per dispatch episode, which at 64 CPUs puts the scheduler loop
// itself on the critical path. The heap keeps the CPUs ordered by
// (local clock, CPU index); between two picks only the acting CPU's
// clock moves (everything the episode charges — syscall work, lock
// spins, idle advances — lands on that one clock), so maintenance is a
// single O(log n) sift per episode.
//
// Tie-break rule: the scan picked the minimum of (clock, cpuClass,
// index) — runnable work beats a pending timer beats idle, then lowest
// index. cpuClass depends on mutable queue state, so it cannot live in
// the heap key (a wake on an idle CPU would have to reposition it). The
// heap keys on (clock, index) only, and pick() resolves class ties by
// walking the equal-min-clock *subtree*: the heap property makes every
// node with the minimum key reachable from the root through nodes of the
// same key, so the walk prunes on first key mismatch and visits exactly
// the tied CPUs. The result is the same total order as the scan —
// existing seeds reproduce bit-exactly at every CPU count, pinned by
// TestClockHeapMatchesScan and the determinism tests.

// clockHeap is an indexed binary min-heap of CPU ids keyed on
// (clk.Now(), id).
type clockHeap struct {
	cpus []*CPU
	heap []int32 // heap of CPU ids
	pos  []int32 // cpu id -> index in heap
}

func newClockHeap(cpus []*CPU) *clockHeap {
	h := &clockHeap{
		cpus: cpus,
		heap: make([]int32, len(cpus)),
		pos:  make([]int32, len(cpus)),
	}
	h.reset()
	return h
}

// reset re-heapifies from scratch: run boundaries are the one place where
// host code may have moved clocks behind the heap's back (tests and boot
// code advance k.Clock directly between runs).
func (h *clockHeap) reset() {
	for i := range h.heap {
		h.heap[i] = int32(i)
		h.pos[i] = int32(i)
	}
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// less orders heap entries a, b (CPU ids) by (clock, id).
func (h *clockHeap) less(a, b int32) bool {
	ca, cb := h.cpus[a].clk.Now(), h.cpus[b].clk.Now()
	return ca < cb || (ca == cb && a < b)
}

func (h *clockHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = int32(i)
	h.pos[h.heap[j]] = int32(j)
}

func (h *clockHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.heap[i], h.heap[p]) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *clockHeap) siftDown(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(h.heap[l], h.heap[m]) {
			m = l
		}
		if r < n && h.less(h.heap[r], h.heap[m]) {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}

// fix restores the heap order after CPU id's clock changed. Episodes only
// advance clocks, but host code between runs can set them arbitrarily, so
// sift both ways.
func (h *clockHeap) fix(id int) {
	h.siftUp(int(h.pos[id]))
	h.siftDown(int(h.pos[id]))
}

// pick returns the CPU the interleaver runs next: minimum (clock,
// cpuClass, index), identical to chooseCPUScan's order.
func (h *clockHeap) pick() *CPU {
	root := h.cpus[h.heap[0]]
	minClk := root.clk.Now()
	best, bestClass := root, cpuClass(root)
	h.walkTies(1, minClk, &best, &bestClass)
	h.walkTies(2, minClk, &best, &bestClass)
	return best
}

// walkTies visits the subtree under heap index i restricted to nodes
// whose clock equals minClk (the heap property guarantees any deeper
// equal-key node sits below an equal-key chain), improving *best on a
// smaller (class, id).
func (h *clockHeap) walkTies(i int, minClk uint64, best **CPU, bestClass *int) {
	if i >= len(h.heap) {
		return
	}
	c := h.cpus[h.heap[i]]
	if c.clk.Now() != minClk {
		return
	}
	if cl := cpuClass(c); cl < *bestClass || (cl == *bestClass && c.id < (*best).id) {
		*best, *bestClass = c, cl
	}
	h.walkTies(2*i+1, minClk, best, bestClass)
	h.walkTies(2*i+2, minClk, best, bestClass)
}
