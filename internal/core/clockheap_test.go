package core

import (
	"math/rand"
	"testing"
)

// TestClockHeapMatchesScan pins the heap chooser to the O(n) reference
// scan: for randomized clock states — including deliberate ties and
// mixed cpuClass ranks from pending timers — pick() must return exactly
// the CPU chooseCPUScan would, at every CPU count the config admits.
// This is the equivalence that lets RunUntil swap the scan for the heap
// without perturbing a single existing seed.
func TestClockHeapMatchesScan(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8, 16, 33, 64} {
		n := n
		rng := rand.New(rand.NewSource(int64(100 + n)))
		cfg := Config{Model: ModelInterrupt, Preempt: PreemptPartial,
			NumCPUs: n, LockModel: LockFine}
		k := New(cfg)
		// Give some CPUs pending timers so cpuClass ranks differ among
		// clock ties (class 1 vs the idle class 2).
		for _, c := range k.cpus {
			if rng.Intn(2) == 0 {
				c.clk.After(1_000_000_000, nil)
			}
		}
		h := newClockHeap(k.cpus)
		for step := 0; step < 2000; step++ {
			want := k.chooseCPUScan()
			got := h.pick()
			if got != want {
				t.Fatalf("n=%d step=%d: heap picked cpu%d (clk=%d), scan picked cpu%d (clk=%d)",
					n, step, got.id, got.clk.Now(), want.id, want.clk.Now())
			}
			// Advance the picked CPU like a dispatch episode would —
			// often by zero or onto another CPU's exact clock to keep the
			// tie paths hot — then fix up the heap.
			switch rng.Intn(4) {
			case 0:
				// Land exactly on a random peer's clock.
				o := k.cpus[rng.Intn(n)]
				if peer := o.clk.Now(); peer > got.clk.Now() {
					got.clk.AdvanceTo(peer)
				}
			case 1:
				// Stay put: repeated picks at one time must be stable.
			default:
				got.clk.Advance(uint64(rng.Intn(500)))
			}
			h.fix(got.id)
		}
		// A reset after host code moves clocks arbitrarily must restore
		// the full ordering.
		for _, c := range k.cpus {
			c.clk.Advance(uint64(rng.Intn(10_000)))
		}
		h.reset()
		if got, want := h.pick(), k.chooseCPUScan(); got != want {
			t.Fatalf("n=%d after reset: heap picked cpu%d, scan picked cpu%d", n, got.id, want.id)
		}
	}
}

// chooseCPUScan is the O(n) reference chooser the clock heap replaced:
// smallest local virtual time, ties preferring a CPU with queued runnable
// work, then one with a pending timer, then the lowest index. Total order
// over kernel state ⇒ the interleaving is a pure function of the initial
// state.
func (k *Kernel) chooseCPUScan() *CPU {
	best := k.cpus[0]
	bestClass := cpuClass(best)
	for _, c := range k.cpus[1:] {
		cn, bn := c.clk.Now(), best.clk.Now()
		if cn < bn {
			best, bestClass = c, cpuClass(c)
			continue
		}
		if cn == bn {
			if cl := cpuClass(c); cl < bestClass {
				best, bestClass = c, cl
			}
		}
	}
	return best
}
