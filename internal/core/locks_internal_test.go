package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// refClearUntil is the reference for vlock.clearUntil: the full-ring scan
// every acquire ran before the watermark existed. hops counts how often
// now moved, so the test can tell chained picks (now lands in a span
// whose until lands in another) from single ones.
func refClearUntil(spans []holdSpan, now uint64) (free uint64, hops int) {
	for {
		hit := false
		for i := range spans {
			if s := &spans[i]; s.from <= now && now < s.until {
				now = s.until
				hit = true
				hops++
			}
		}
		if !hit {
			return now, hops
		}
	}
}

// LockScans returns how many acquires took the ring-scan slow path, over
// all lock slots (exported to the external tests of this package).
func (k *Kernel) LockScans() uint64 {
	var n uint64
	for i := range k.vlocks {
		n += k.vlocks[i].scans
	}
	return n
}

// TestClearUntilMatchesFullScan drives one big-lock slot through the
// product acquire/release path from CPUs with deliberately skewed clocks
// and checks every acquire against the full-ring reference pick for
// pick: the acquirer's clock after the spin, and the contention counters.
// The hold sequences include zero-length holds (never published), clocks
// dropped inside a just-published hold so picks chain through several
// spans, and enough holds to wrap the ring many times, at the historic
// 64-entry ring and at the 16·ncpus ring of larger machines.
func TestClearUntilMatchesFullScan(t *testing.T) {
	for _, ncpus := range []int{4, 8, 32} {
		ring := spanRingSize(ncpus)
		t.Run(fmt.Sprintf("cpus=%d/ring=%d", ncpus, ring), func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				checkClearUntil(t, ncpus, ring, seed)
			}
		})
	}
}

func checkClearUntil(t *testing.T, ncpus, ring int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	k := New(Config{Model: ModelInterrupt, NumCPUs: ncpus, LockModel: LockBig})
	defer k.Shutdown()
	vl := &k.vlocks[slotBig]
	if len(vl.spans) != ring {
		t.Fatalf("ring length = %d, want %d", len(vl.spans), ring)
	}
	var (
		published, fast, chained int
		wantContended, wantWait  uint64
		lastWatermark, lastScans uint64
		maxUntil                 uint64
	)
	for step := 0; step < 40*ring; step++ {
		c := k.cpus[rng.Intn(ncpus)]
		// Skew: mostly small steps, sometimes one long dispatch episode
		// that runs this CPU's clock far ahead of its peers.
		if rng.Intn(8) == 0 {
			c.clk.Advance(uint64(rng.Intn(4000)))
		} else {
			c.clk.Advance(uint64(rng.Intn(30)))
		}
		now := c.clk.Now()
		want, hops := refClearUntil(vl.spans, now)
		if hops > 1 {
			chained++
		}
		if want > now {
			wantContended++
			wantWait += want - now
		}

		k.lockAcquireSlot(c, slotBig)
		if got := c.clk.Now(); got != want {
			t.Fatalf("seed %d step %d cpu %d: acquire at %d got the lock at %d, reference says %d",
				seed, step, c.id, now, got, want)
		}
		if vl.scans == lastScans {
			fast++
		}
		lastScans = vl.scans

		// Hold: a quarter are zero-length and must leave the ring alone.
		hold := uint64(0)
		if rng.Intn(4) != 0 {
			hold = 1 + uint64(rng.Intn(80))
		}
		c.clk.Advance(hold)
		from, until, cursor := want, want+hold, vl.next
		k.lockReleaseSlot(c, slotBig)
		if hold == 0 {
			if vl.next != cursor {
				t.Fatalf("seed %d step %d: zero-length hold was published", seed, step)
			}
		} else {
			published++
			if vl.spans[cursor] != (holdSpan{from, until}) {
				t.Fatalf("seed %d step %d: published %v, want [%d,%d)", seed, step, vl.spans[cursor], from, until)
			}
			if until > maxUntil {
				maxUntil = until
			}
			// Chain: drop a clock-behind peer inside the hold just
			// published, whose end may itself sit inside a hold a
			// leading CPU published earlier.
			if d := k.cpus[rng.Intn(ncpus)]; d.clk.Now() < from && rng.Intn(3) == 0 {
				d.clk.AdvanceTo(from + uint64(rng.Intn(int(hold))))
			}
		}
		if len(c.held) != 0 || c.holds[slotBig] != 0 {
			t.Fatalf("seed %d step %d: lock still held after release (held=%v)", seed, step, c.held)
		}
		// The watermark invariant: an upper bound on everything ever
		// published (so also on everything still in the ring), never
		// lowered.
		if vl.watermark != maxUntil || vl.watermark < lastWatermark {
			t.Fatalf("seed %d step %d: watermark %d (was %d), max published until %d",
				seed, step, vl.watermark, lastWatermark, maxUntil)
		}
		lastWatermark = vl.watermark
	}
	if vl.acquires != uint64(40*ring) || vl.contended != wantContended || vl.waitCycles != wantWait {
		t.Fatalf("seed %d: counters acquires=%d contended=%d wait=%d, want %d/%d/%d",
			seed, vl.acquires, vl.contended, vl.waitCycles, 40*ring, wantContended, wantWait)
	}
	// The sequence must have exercised what it claims to.
	if published < 4*ring || fast == 0 || vl.scans == 0 || wantContended == 0 || chained == 0 {
		t.Fatalf("seed %d: weak sequence: published=%d (ring %d) fast=%d scans=%d contended=%d chained=%d",
			seed, published, ring, fast, vl.scans, wantContended, chained)
	}
}

// TestLockReleaseOutOfOrder pins the held-list bookkeeping behind the
// LIFO pop: releasing the bottom or the middle slot first leaves exactly
// the other slots held, in acquire order.
func TestLockReleaseOutOfOrder(t *testing.T) {
	k := New(Config{Model: ModelInterrupt, NumCPUs: 2, LockModel: LockFine})
	defer k.Shutdown()
	c := k.cpus[0]
	heldAfter := func(release int, want ...int32) {
		t.Helper()
		k.lockReleaseSlot(c, release)
		if fmt.Sprint(c.held) != fmt.Sprint(want) {
			t.Fatalf("after releasing slot %d: held = %v, want %v", release, c.held, want)
		}
		if c.holds[release] != 0 {
			t.Fatalf("slot %d still counted as held", release)
		}
	}
	for _, s := range []int{slotObj, slotMMU, slotSched} {
		k.lockAcquireSlot(c, s)
	}
	heldAfter(slotObj, int32(slotMMU), int32(slotSched)) // bottom
	k.lockAcquireSlot(c, slotObj)
	heldAfter(slotSched, int32(slotMMU), int32(slotObj)) // middle
	heldAfter(slotObj, int32(slotMMU))                   // top
	heldAfter(slotMMU)
}
