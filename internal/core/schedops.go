package core

import (
	"repro/internal/obj"
	"repro/internal/profile"
	"repro/internal/trace"
)

// This file is the only place (besides the CPU struct itself) allowed to
// touch per-CPU scheduler state — the run queues, resched flags, slice
// timers, and resched timestamps. Everything else in internal/core goes
// through these accessors, which wrap each queue touch in the scheduler
// lock of the configured lock model. TestSchedStateAccessRouting enforces
// the routing textually.

// schedEnqueue appends t to the tail of its home CPU's run queue, taking
// that queue's lock (under the fine model a remote enqueue locks the
// *target* queue instance, not the enqueuer's own). Under ParallelHost a
// remote queue is owner-only state, so the enqueue is posted to the
// target CPU's mailbox instead (ordered two-phase: see parallel.go).
func (k *Kernel) schedEnqueue(c *CPU, t *obj.Thread) {
	if k.par != nil && t.HomeCPU != c.id {
		k.mailPostWake(t)
		return
	}
	slot := k.runqSlot(t.HomeCPU)
	k.lockAcquireSlot(c, slot)
	k.cpus[t.HomeCPU].runq.Enqueue(t)
	k.lockReleaseSlot(c, slot)
}

// schedEnqueueFront puts t at the head of the acting CPU's own queue (a
// preempted thread that has not consumed its quantum stays local).
func (k *Kernel) schedEnqueueFront(c *CPU, t *obj.Thread) {
	k.lockAcquire(c, lockSched)
	c.runq.EnqueueFront(t)
	k.lockRelease(c, lockSched)
}

// schedPick takes the best runnable thread off c's own queue.
func (k *Kernel) schedPick(c *CPU) *obj.Thread {
	k.lockAcquire(c, lockSched)
	t := c.runq.Pick()
	k.lockRelease(c, lockSched)
	return t
}

// schedTopPriority reports the most urgent queued priority on c's queue.
func (k *Kernel) schedTopPriority(c *CPU) (int, bool) {
	k.lockAcquire(c, lockSched)
	p, ok := c.runq.TopPriority()
	k.lockRelease(c, lockSched)
	return p, ok
}

// schedRemove unlinks t from whichever CPU's queue holds it. The fine
// model locks one queue instance at a time while probing (home first —
// the overwhelmingly common case — then the rest), never holding two at
// once. Under ParallelHost a remote removal is posted to the owning
// CPU's mailbox; until the owner drains it, the entry sits stale in the
// queue and Pick's runnable check skips it.
func (k *Kernel) schedRemove(c *CPU, t *obj.Thread) {
	if k.par != nil {
		if t.HomeCPU != c.id {
			k.mailPostDrop(t)
			return
		}
		// Own queue only: ParallelHost pins threads to their home CPU, so
		// the deterministic fallback probe of the other queues would read
		// owner-only state for a thread that cannot be there.
		slot := k.runqSlot(c.id)
		k.lockAcquireSlot(c, slot)
		c.runq.Remove(t)
		k.lockReleaseSlot(c, slot)
		return
	}
	if k.cfg.LockModel == LockBig {
		k.lockAcquire(c, lockSched)
		if !k.cpus[t.HomeCPU].runq.Remove(t) {
			for _, o := range k.cpus {
				if o.id != t.HomeCPU && o.runq.Remove(t) {
					break
				}
			}
		}
		k.lockRelease(c, lockSched)
		return
	}
	home := k.runqSlot(t.HomeCPU)
	k.lockAcquireSlot(c, home)
	found := k.cpus[t.HomeCPU].runq.Remove(t)
	k.lockReleaseSlot(c, home)
	if found {
		return
	}
	for _, o := range k.cpus {
		if o.id == t.HomeCPU {
			continue
		}
		slot := k.runqSlot(o.id)
		k.lockAcquireSlot(c, slot)
		found = o.runq.Remove(t)
		k.lockReleaseSlot(c, slot)
		if found {
			return
		}
	}
}

// schedSteal rebalances: the idle CPU c takes one thread from the tail of
// the victim with the most urgent queued work (ties broken by rotation
// from c.id+1, so a hot CPU 0 is not always the designated victim).
// Deterministic mode only; ParallelHost pins threads to their home CPU.
func (k *Kernel) schedSteal(c *CPU) *obj.Thread {
	// Under the fine model each victim's queue instance is locked around
	// its probe (and the chosen victim's again around the steal) — the
	// steal path pays one short acquire per scanned queue instead of
	// serializing every CPU on one scheduler lock. At most one queue lock
	// is held at a time, so instance ordering cannot deadlock. The big
	// lock keeps the single-acquire scan byte-for-byte (existing seeds).
	fine := k.cfg.LockModel == LockFine
	if !fine {
		k.lockAcquire(c, lockSched)
	}
	var victim *CPU
	best := -1
	n := len(k.cpus)
	for i := 1; i < n; i++ {
		o := k.cpus[(c.id+i)%n]
		if fine {
			k.lockAcquireSlot(c, k.runqSlot(o.id))
		}
		p, ok := o.runq.TopPriority()
		// A staged handoff is stealable work too: during imbalance the
		// donor's CPU may be far ahead in virtual time, and leaving the
		// donation in the slot would idle this CPU until the donor
		// catches up.
		if d := o.runq.Donation(); d != nil && d.Runnable() && (!ok || d.Priority > p) {
			p, ok = d.Priority, true
		}
		if fine {
			k.lockReleaseSlot(c, k.runqSlot(o.id))
		}
		if ok && p > best {
			victim, best = o, p
		}
	}
	var t *obj.Thread
	fromSlot := false
	if victim != nil {
		if fine {
			k.lockAcquireSlot(c, k.runqSlot(victim.id))
		}
		t = victim.runq.Steal()
		if t == nil {
			t = victim.runq.TakeDonation()
			fromSlot = t != nil
		}
		if fine {
			k.lockReleaseSlot(c, k.runqSlot(victim.id))
		}
	}
	if !fine {
		k.lockRelease(c, lockSched)
	}
	if t != nil {
		if fromSlot {
			k.countFastpathFallback()
		}
		c.stats.Steals++
		if k.Metrics != nil {
			k.Metrics.Steals.Inc()
		}
		k.emit(trace.Steal, uint32(victim.id), t.ID)
		// A stolen spanned thread (queued or staged donation) migrates the
		// request to this CPU — a cross-CPU hop on its causal chain.
		k.spanCheckpoint(t, trace.FlowSteal)
	}
	return t
}

// drainMail applies the cross-CPU operations posted to c's mailbox, in
// post order (phase two of the gate's two-phase protocol). Runs at the
// top of each owner loop iteration holding c's gate shard — the lock
// that owns c's queue — but not kmu. A pending kick sets the
// owner's own resched flag, stamping the kicker's clock so the
// preempt-latency histogram keeps its cross-CPU wake-to-dispatch
// meaning.
func (k *Kernel) drainMail(c *CPU) {
	p := k.par
	q := &p.qmu[c.id]
	m := &p.mail[c.id]
	q.Lock()
	if len(m.ops) == 0 && !m.kicked {
		q.Unlock()
		return
	}
	ops := m.ops
	m.ops = m.spare[:0]
	kicked, stamp := m.kicked, m.stamp
	m.kicked = false
	q.Unlock()
	for _, op := range ops {
		if op.drop {
			c.runq.Remove(op.t)
		} else {
			c.runq.Enqueue(op.t)
		}
	}
	m.spare = ops[:0]
	if kicked {
		c.needResched = true
		if k.Metrics != nil && c.reschedSince == 0 {
			c.reschedSince = stamp
		}
	}
}

// runnableQueuedOn reports whether c's queue holds a runnable thread
// (quiescence checks; skips stale entries). A staged handoff counts: the
// donated thread is runnable work even though it bypasses the queue.
func (k *Kernel) runnableQueuedOn(c *CPU) bool {
	if d := c.runq.Donation(); d != nil && d.Runnable() {
		return true
	}
	_, ok := c.runq.TopPriority()
	return ok
}

// ---------------------------------------------------------------------------
// The IPC fast path's donation slot. Staging and consuming a handoff
// touches only the scheduler lock — under fine locking this is the
// multicore win: the rendezvous completion never serializes on the
// object-space lock the way a queue round trip through wake + pick would.

// schedDonate stages t in the acting CPU c's donation slot for a direct
// handoff, reporting whether the slot was free. On false the caller must
// fall back to a normal enqueue.
func (k *Kernel) schedDonate(c *CPU, t *obj.Thread) bool {
	k.lockAcquire(c, lockSched)
	ok := c.runq.Donate(t)
	k.lockRelease(c, lockSched)
	return ok
}

// schedTakeDonation consumes c's staged handoff target, or nil. A thread
// that went non-runnable while staged is dropped, like stale queue
// entries in Pick.
func (k *Kernel) schedTakeDonation(c *CPU) *obj.Thread {
	k.lockAcquire(c, lockSched)
	t := c.runq.TakeDonation()
	k.lockRelease(c, lockSched)
	return t
}

// schedClaimDispatch returns the next thread for c to run and whether it
// arrived by direct handoff. The staged donation outranks the queue —
// that is the fast path — unless a strictly higher-priority thread is
// queued, in which case the donation is demoted to a normal enqueue (a
// handoff donates the slice, it never inverts priority) and the pick
// proceeds normally.
func (k *Kernel) schedClaimDispatch(c *CPU) (*obj.Thread, bool) {
	if t := k.schedTakeDonation(c); t != nil {
		top, ok := k.schedTopPriority(c)
		if !ok || top <= t.Priority {
			return t, true
		}
		k.countFastpathFallback()
		k.schedEnqueue(c, t)
	}
	return k.schedPick(c), false
}

// donationPending reports whether c's slot holds a staged handoff
// (owner-read, like needsResched: the slot is only written by kernel
// code acting on c, and never in ParallelHost mode).
func (k *Kernel) donationPending(c *CPU) bool { return c.runq.Donation() != nil }

// schedFlushDonation demotes c's staged handoff to a normal enqueue: the
// donor kept running (EINTR, fault remedied, call completed without
// blocking), so the woken peer must compete through the run queue like
// any other wake. Counted as a fast-path fallback.
func (k *Kernel) schedFlushDonation(c *CPU) {
	k.lockAcquire(c, lockSched)
	t := c.runq.TakeDonation()
	k.lockRelease(c, lockSched)
	if t == nil {
		return
	}
	k.countFastpathFallback()
	k.schedEnqueue(c, t)
	k.maybeResched(t)
}

// ---------------------------------------------------------------------------
// Resched flags and the preempt-latency window.

// noteResched flags a pending local reschedule and stamps the request time
// for the preemption-latency histogram (first request wins until serviced).
func (k *Kernel) noteResched(c *CPU) {
	c.needResched = true
	if k.Metrics != nil && c.reschedSince == 0 {
		c.reschedSince = c.clk.Now()
	}
}

// forceResched sets the flag without stamping a latency window (the RunFor
// budget stop is a harness artifact, not a scheduling event).
func (k *Kernel) forceResched(c *CPU) { c.needResched = true }

// clearResched drops the flag; an open latency window stays open until a
// context switch observes it.
func (k *Kernel) clearResched(c *CPU) { c.needResched = false }

// needsResched reads c's flag (owner-read; cross-CPU writes arrive via
// kickCPU, through c's mailbox in ParallelHost mode).
func (k *Kernel) needsResched(c *CPU) bool { return c.needResched }

// observePreemptLatency closes an open reschedule-request window at a
// context switch. A stolen thread can dispatch at a local time before the
// (remote) request stamp; that skew clamps to zero.
func (k *Kernel) observePreemptLatency(c *CPU) {
	if k.Metrics != nil && c.reschedSince != 0 {
		lat := uint64(0)
		if now := c.clk.Now(); now > c.reschedSince {
			lat = now - c.reschedSince
		}
		k.Metrics.PreemptLatency.Observe(lat)
		c.reschedSince = 0
	}
}

// kickCPU is the IPI analogue: CPU c asks target to reschedule (a wake
// landed on target's queue that should preempt or un-idle it). The stamp
// uses the kicker's clock — the latency histogram then measures
// wake-to-dispatch across CPUs.
func (k *Kernel) kickCPU(c *CPU, target *CPU) {
	c.stats.IPIs++
	if k.Metrics != nil {
		k.Metrics.IPIs.Inc()
	}
	k.emit(trace.IPI, uint32(target.id), 0)
	// ParallelHost: a remote CPU's flag is owner-only state; post the
	// kick to its mailbox instead (the owner sets its own flag on drain).
	if k.par != nil {
		k.mailPostKick(target)
		return
	}
	target.needResched = true
	if k.Metrics != nil && target.reschedSince == 0 {
		target.reschedSince = c.clk.Now()
	}
}

// ---------------------------------------------------------------------------
// Slice timer.

// armSliceTimer (re)arms c's quantum timer one quantum from now, reusing
// the CPU's one Timer so a context switch allocates nothing.
func (k *Kernel) armSliceTimer(c *CPU) {
	c.clk.Rearm(c.sliceTimer, c.clk.Now()+k.cfg.Quantum)
}

// quantumExpired is c's quantum-timer callback. A uniprocessor keeps the
// running thread unless equal-or-higher-priority work is queued (the
// original round-robin rule, preserved bit-exactly); a multiprocessor
// always ends the episode so the serial interleaver regains control and
// other CPUs' virtual time can progress (liveness under work stealing).
func (k *Kernel) quantumExpired(c *CPU) {
	c.stats.TimerIRQs++
	if k.Metrics != nil {
		k.Metrics.TimerIRQs.Inc()
	}
	cur := c.current
	if cur == nil {
		return
	}
	if len(k.cpus) > 1 {
		k.noteResched(c)
		return
	}
	if p, ok := c.runq.TopPriority(); ok && p >= cur.Priority {
		k.noteResched(c)
	} else if d := c.runq.Donation(); d != nil && d.Priority >= cur.Priority {
		// A staged handoff is queued work too: without this, a quantum
		// expiring between staging and the donor's block would leave
		// the system timer-less while the staged peer waits.
		k.noteResched(c)
	}
}

// ensureSliceTimer arms c's quantum timer only if none is pending — used
// by the direct-handoff switch, where the incoming thread inherits the
// donor's remaining slice and so must NOT get a fresh quantum; but if the
// old timer already fired (or was never armed), running on without one
// would let a handoff chain starve equal-priority queued work.
func (k *Kernel) ensureSliceTimer(c *CPU) {
	if c.sliceTimer.Fired() {
		k.armSliceTimer(c)
	}
}

// ---------------------------------------------------------------------------
// CPU selection for the deterministic serial interleaver.

// cpuClass ranks same-time CPUs for the clock heap's pick: runnable work
// first, then pending timers, then idle. A staged handoff counts as
// runnable work — this is load-bearing for liveness: a CPU holding only a
// donation must outrank idle peers at the same virtual time, or the
// interleaver could declare quiescence with a thread still staged in the
// slot.
func cpuClass(c *CPU) int {
	if d := c.runq.Donation(); d != nil && d.Runnable() {
		return 0
	}
	if _, ok := c.runq.TopPriority(); ok {
		return 0
	}
	if c.clk.Pending() > 0 {
		return 1
	}
	return 2
}

// idleStep advances an idle CPU to the earliest upcoming event anywhere:
// its own next timer, another CPU's clock, or another CPU's deadline —
// whichever is soonest — after which the clock heap reconsiders. Advancing
// in these conservative steps (rather than leaping straight to the local
// deadline, which can be a full quantum away) keeps an idle CPU's clock
// shadowing the busy CPUs, so it stays eligible to pick up work the
// moment any appears; overshooting would retire it from the pick until
// everyone else caught up. It returns false when the whole system is
// quiescent.
func (k *Kernel) idleStep(c *CPU) bool {
	now := c.clk.Now()
	target, ok := uint64(0), false
	if d, dok := c.clk.NextDeadline(); dok {
		target, ok = d, true // may be overdue (d <= now): fires on advance
	}
	for _, o := range k.cpus {
		if o == c {
			continue
		}
		if t := o.clk.Now(); t > now && (!ok || t < target) {
			target, ok = t, true
		}
		if d, dok := o.clk.NextDeadline(); dok && d > now && (!ok || d < target) {
			target, ok = d, true
		}
	}
	if !ok {
		return false // no runnable work, no timers anywhere: quiescent
	}
	if target > now {
		c.stats.IdleCycles += target - now
		k.profCharge(c, nil, profile.PathIdle, target-now)
	}
	c.clk.AdvanceTo(target)
	return true
}
