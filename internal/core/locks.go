package core

// The multiprocessor locking models (Config.LockModel). Locks here are
// *virtual*: they serialize simulated kernel execution in virtual time
// rather than host execution. Each lock keeps the virtual time its last
// holder released it (busyUntil); a CPU whose local clock is behind that
// time acquires by spinning — its clock advances to the release point and
// the spin cycles are charged as kernel time. With one CPU a lock can
// never be busy (the same clock both sets and tests busyUntil), so every
// acquire is free and the NumCPUs==1 timeline is bit-identical to the
// uniprocessor kernel under any model — pinned by the multicpu tests.
//
// Locks are *slots* in a kernel-wide table. The first four slots are the
// classic subsystem locks (sched, obj, mmu, big); the fine-grained model
// (LockFine) appends one slot per run queue and, in deterministic mode,
// one obj/mmu slot pair per space, so disjoint CPUs and spaces stop
// contending. Every slot carries its subsystem *kind*, which is what
// feeds the lock.* metrics and LockStats — the fine model fans a kind out
// across many instances but reports in the same four-row shape.
//
// Lock order (deadlock discipline, enforced by construction):
//
//	big  (outermost; the BigLock mapping of everything)
//	obj  (kernel entry for syscalls) | mmu (kernel entry for faults)
//	sched (innermost; run queues and resched flags)
//
// obj and mmu are never nested: a handler that faults returns KFault, the
// syscall epilogue releases obj, and only then does doFault take mmu.
// Within the fine model's sched kind, multi-queue paths (steal, remove)
// hold at most one extra queue lock at a time while scanning, so instance
// order never matters; the two-space zero-copy share takes its two mmu
// instances in ascending slot order.
//
// Blocking releases: a kernel path that parks (block, yieldCPU, the FP
// in-kernel park) releases every lock its CPU holds first — the classic
// "sleep releases the kernel lock" rule — and the process model reacquires
// on resume via a snapshot kept on the parked goroutine's own stack. In
// the interrupt model the unwind discards the snapshot and the next
// kernel entry reacquires from scratch.
//
// In ParallelHost mode the host gate (parallel.go) serializes kernel
// sections, so the virtual spin waits are disabled (wall-clock
// interleaving, not virtual-time modeling, decides contention there); the
// hold/acquire counters and the lock.* metrics still run — every lock
// acquire and release happens inside a kernel section, under the gate's
// kernel mutex.

import (
	"repro/internal/obj"
	"repro/internal/profile"
)

// lockID names one kernel lock *kind*.
type lockID uint8

const (
	lockSched lockID = iota // run queues, resched flags
	lockObj                 // object space: syscall-entry lock
	lockMMU                 // address spaces: fault-entry lock
	lockBig                 // the big kernel lock (LockBig maps everything here)
	numLocks
)

// The fixed lock-table slots, one per kind, in lockID order. The fine
// model appends instance slots after these.
const (
	slotSched = int(lockSched)
	slotObj   = int(lockObj)
	slotMMU   = int(lockMMU)
	slotBig   = int(lockBig)

	numFixedSlots = int(numLocks)
)

// NumLockKinds is the number of distinct kernel lock kinds (for metrics).
const NumLockKinds = int(numLocks)

// LockKindNames are the lock names in lockID order.
var LockKindNames = [NumLockKinds]string{"sched", "obj", "mmu", "big"}

// lockHistory is how many recent hold intervals each lock remembers at
// the classic CPU counts. The serial interleaver bounds cross-CPU clock
// skew to roughly one dispatch episode, so only the holds of the last few
// episodes can ever overlap an acquirer's local time; older entries are
// dead weight. Overwriting a still-relevant interval errs toward *less*
// contention, so the ring is sized generously relative to the holds a
// single episode performs — and scaled with the CPU count past 4 CPUs
// (spanRingSize), where a shared slot can see a full system's worth of
// holds between one CPU's turns. The 1–4 CPU ring stays at the historic
// 64 so existing seeds reproduce bit-exactly.
const lockHistory = 64

// spanRingSize returns the hold-interval ring length for a kernel with
// ncpus processors.
func spanRingSize(ncpus int) int {
	if ncpus <= 4 {
		return lockHistory
	}
	return 16 * ncpus
}

// holdSpan is one completed [from, until) hold of a lock in virtual time.
type holdSpan struct {
	from, until uint64
}

// vlock is one virtual lock slot: a ring of its recent hold intervals
// plus contention counters. Access is serialized by the deterministic
// scheduler loop or by the ParallelHost gate's kernel mutex.
//
// Intervals — not just the last release time — matter because the serial
// interleaver is coarse: one dispatch can run a CPU's clock far ahead of
// its peers before they get a turn. A peer whose local clock is still
// behind the last release time did not necessarily contend — if no hold
// covered its local instant the lock was free then; the skew is an
// artifact of simulation order, not of simulated time. Contention is
// charged exactly when the acquirer's clock lands inside a remembered
// hold, which is when a real CPU would have spun.
type vlock struct {
	spans []holdSpan
	next  int // ring write cursor
	// watermark is an upper bound on every until this lock has ever
	// published: never lowered, so an acquirer at or past it cannot be
	// inside any remembered hold and skips the ring scan. Stale-high
	// (the span it came from was overwritten) only costs a scan;
	// stale-low would drop contention, which is why nothing lowers it.
	watermark  uint64
	scans      uint64 // scanClear entries; stays 0 on a uniprocessor
	acquires   uint64
	contended  uint64
	waitCycles uint64
}

// clearUntil returns the earliest time >= now at which no remembered hold
// of vl covers the clock — the moment a spinning CPU would get the lock.
// With one CPU, and for the leading CPU of a multiprocessor, now is never
// behind the watermark and the answer is now itself in O(1); only a
// clock-behind acquirer scans.
func (vl *vlock) clearUntil(now uint64) uint64 {
	if now >= vl.watermark {
		return now
	}
	return vl.scanClear(now)
}

// scanClear is clearUntil's slow path: chase now through the ring until
// no remembered hold covers it.
func (vl *vlock) scanClear(now uint64) uint64 {
	vl.scans++
	for {
		hit := false
		for i := range vl.spans {
			if s := &vl.spans[i]; s.from <= now && now < s.until {
				now = s.until
				hit = true
			}
		}
		if !hit {
			return now
		}
	}
}

// publish records the completed hold [from, until) in the ring. Callers
// skip zero-length holds: no clock can land inside one.
func (vl *vlock) publish(from, until uint64) {
	vl.spans[vl.next] = holdSpan{from: from, until: until}
	if vl.next++; vl.next == len(vl.spans) {
		vl.next = 0
	}
	if until > vl.watermark {
		vl.watermark = until
	}
}

// LockStat is one lock's contention counters, as reported by LockStats.
type LockStat struct {
	Name       string
	Acquires   uint64
	Contended  uint64
	WaitCycles uint64
}

// initLockTable builds the fixed slots plus, under the fine model, the
// per-run-queue instance slots. Per-space instances are appended later,
// as spaces are created (newSpaceInternal).
func (k *Kernel) initLockTable() {
	ring := spanRingSize(len(k.cpus))
	k.vlocks = make([]vlock, 0, numFixedSlots+len(k.cpus))
	k.lockKinds = make([]lockID, 0, cap(k.vlocks))
	k.lockNames = make([]string, 0, cap(k.vlocks))
	for id := lockID(0); id < numLocks; id++ {
		k.addLockSlot(id, LockKindNames[id], ring)
	}
	if k.cfg.LockModel == LockFine {
		for _, c := range k.cpus {
			k.addLockSlot(lockSched, "runq"+itoa(c.id), ring)
		}
	}
}

// addLockSlot appends one lock instance of the given kind, growing every
// CPU's hold-tracking arrays to match. Growing mid-run is safe in the
// deterministic modes (single-threaded); ParallelHost never grows the
// table after New (it uses the fixed obj/mmu slots — see fineSpaceLocks).
func (k *Kernel) addLockSlot(kind lockID, name string, ring int) int {
	slot := len(k.vlocks)
	k.vlocks = append(k.vlocks, vlock{spans: make([]holdSpan, ring)})
	k.lockKinds = append(k.lockKinds, kind)
	k.lockNames = append(k.lockNames, name)
	for _, c := range k.cpus {
		for len(c.holds) < len(k.vlocks) {
			c.holds = append(c.holds, 0)
			c.lockSince = append(c.lockSince, 0)
		}
	}
	return slot
}

// fineSpaceLocks reports whether spaces get their own obj/mmu lock
// instances: fine model, deterministic mode only. ParallelHost keeps
// the lock table fixed after New — per-space slots would grow every
// CPU's hold arrays while other host goroutines read them — and
// host-level concurrency, not the virtual-time model, decides contention
// there anyway.
func (k *Kernel) fineSpaceLocks() bool {
	return k.cfg.LockModel == LockFine && k.par == nil
}

// itoa is a dependency-free strconv.Itoa for small non-negative ints
// (lock slot names; avoids importing strconv into the hot-path file).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// LockStats returns the per-kind acquire/contention counters in
// LockKindNames order. Under LockBig only the "big" row moves; under
// LockFine the "big" row stays zero and each other row sums that kind's
// instances (per-queue, per-space).
func (k *Kernel) LockStats() [NumLockKinds]LockStat {
	var out [NumLockKinds]LockStat
	for i := range out {
		out[i].Name = LockKindNames[i]
	}
	for i := range k.vlocks {
		o := &out[k.lockKinds[i]]
		o.Acquires += k.vlocks[i].acquires
		o.Contended += k.vlocks[i].contended
		o.WaitCycles += k.vlocks[i].waitCycles
	}
	return out
}

// FineLockStats returns one row per lock *instance* (slot), in slot
// order — "sched", "obj", ..., "runq3", "obj.s1" — for the fine model's
// per-instance contention breakdown. Rows with zero acquires are
// included; callers filter.
func (k *Kernel) FineLockStats() []LockStat {
	out := make([]LockStat, len(k.vlocks))
	for i := range k.vlocks {
		out[i] = LockStat{
			Name:       k.lockNames[i],
			Acquires:   k.vlocks[i].acquires,
			Contended:  k.vlocks[i].contended,
			WaitCycles: k.vlocks[i].waitCycles,
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Slot resolution.

// slotForID maps a lock kind to the slot the acting CPU c should take
// under the configured model. Under the fine model the scheduler kind
// resolves to c's own run-queue instance and the obj/mmu kinds to the
// current thread's space instances; paths that act on *another* queue or
// space resolve explicitly (runqSlot, spaceObjSlot, spaceMMUSlot).
func (k *Kernel) slotForID(c *CPU, id lockID) int {
	if k.cfg.LockModel == LockBig {
		return slotBig
	}
	switch id {
	case lockSched:
		return numFixedSlots + c.id
	case lockObj:
		if t := c.current; t != nil {
			return k.spaceObjSlot(t.Space)
		}
	case lockMMU:
		if t := c.current; t != nil {
			return k.spaceMMUSlot(t.Space)
		}
	}
	return int(id)
}

// runqSlot returns the lock slot guarding CPU cpuID's run queue.
func (k *Kernel) runqSlot(cpuID int) int {
	if k.cfg.LockModel == LockBig {
		return slotBig
	}
	return numFixedSlots + cpuID
}

// spaceObjSlot returns the object-space lock slot for s.
func (k *Kernel) spaceObjSlot(s *obj.Space) int {
	if k.cfg.LockModel == LockBig {
		return slotBig
	}
	if s != nil && s.LockSlot != 0 {
		return s.LockSlot
	}
	return slotObj
}

// spaceMMUSlot returns the MMU lock slot for s.
func (k *Kernel) spaceMMUSlot(s *obj.Space) int {
	if k.cfg.LockModel == LockBig {
		return slotBig
	}
	if s != nil && s.LockSlot != 0 {
		return s.LockSlot + 1
	}
	return slotMMU
}

// ---------------------------------------------------------------------------
// Acquire / release.

// lockAcquireSlot takes the lock in the given slot on behalf of CPU c.
// Re-acquisition by the same CPU nests (a refcount). A contended acquire
// spins: the CPU's clock advances to the lock's release time and the wait
// is charged as kernel cycles.
func (k *Kernel) lockAcquireSlot(c *CPU, slot int) {
	if c.holds[slot] > 0 {
		c.holds[slot]++
		return
	}
	vl := &k.vlocks[slot]
	vl.acquires++
	kind := k.lockKinds[slot]
	if k.Metrics != nil {
		k.Metrics.LockAcquires[kind].Inc()
	}
	if k.par == nil {
		now := c.clk.Now()
		if free := vl.clearUntil(now); free > now {
			wait := free - now
			vl.contended++
			vl.waitCycles += wait
			c.stats.KernelCycles += wait
			if k.Metrics != nil {
				k.Metrics.LockContended[kind].Inc()
				k.Metrics.LockWaitCycles[kind].Add(wait)
			}
			c.clk.Advance(wait)
			k.profCharge(c, c.current, profile.PathLockSpin, wait)
		}
	}
	c.holds[slot] = 1
	c.lockSince[slot] = c.clk.Now()
	c.held = append(c.held, int32(slot))
}

// lockReleaseSlot drops one nesting level of the lock in slot, publishing
// the hold interval when the outermost level unlocks.
func (k *Kernel) lockReleaseSlot(c *CPU, slot int) {
	if c.holds[slot] == 0 {
		panic("core: lockRelease of unheld lock " + k.lockNames[slot])
	}
	c.holds[slot]--
	if c.holds[slot] > 0 {
		return
	}
	now := c.clk.Now()
	if k.Metrics != nil {
		k.Metrics.LockHoldCycles[k.lockKinds[slot]].Observe(now - c.lockSince[slot])
	}
	// Publish this hold so later (possibly clock-behind) acquirers spin
	// past it.
	if since := c.lockSince[slot]; k.par == nil && now > since {
		k.vlocks[slot].publish(since, now)
	}
	// Drop slot from the held list: releases are near-LIFO, so this is
	// almost always a pop of the top entry.
	top := len(c.held) - 1
	if c.held[top] != int32(slot) {
		i := top - 1
		for c.held[i] != int32(slot) {
			i--
		}
		copy(c.held[i:], c.held[i+1:])
	}
	c.held = c.held[:top]
}

// lockAcquire takes (the model's slot for) lock kind id on behalf of c.
func (k *Kernel) lockAcquire(c *CPU, id lockID) {
	k.lockAcquireSlot(c, k.slotForID(c, id))
}

// lockRelease drops one nesting level of (the model's slot for) kind id.
// Acquire/release pairs must resolve to the same slot: paths where the
// current thread can change mid-hold use the slot API directly.
func (k *Kernel) lockRelease(c *CPU, id lockID) {
	k.lockReleaseSlot(c, k.slotForID(c, id))
}

// releaseHeld drops every lock the acting CPU still holds — the idempotent
// end-of-episode epilogue. Paths that parked already released (parkRelease),
// so this is a no-op for them; paths that completed or died release here.
func (k *Kernel) releaseHeld() {
	c := k.cur
	for len(c.held) > 0 {
		slot := int(c.held[len(c.held)-1])
		c.holds[slot] = 1 // collapse nesting: the episode is over
		k.lockReleaseSlot(c, slot)
	}
}

// maxHeldSlots bounds how many distinct lock instances one kernel episode
// can hold at once (entry lock + own queue + one remote queue + slack).
const maxHeldSlots = 8

// lockSnap is a parkRelease snapshot: the held slots and their nesting
// counts. It lives on the parked goroutine's stack — threads migrate
// across CPUs between park and resume, so it must not live on the CPU.
type lockSnap struct {
	n     int
	slots [maxHeldSlots]int32
	count [maxHeldSlots]int16
}

// parkRelease releases everything the acting CPU holds before a park,
// returning the snapshot a process-model resume reacquires from.
func (k *Kernel) parkRelease() lockSnap {
	c := k.cur
	var snap lockSnap
	for len(c.held) > 0 {
		slot := int(c.held[len(c.held)-1])
		if snap.n == maxHeldSlots {
			panic("core: parkRelease: too many held lock slots")
		}
		snap.slots[snap.n] = int32(slot)
		snap.count[snap.n] = c.holds[slot]
		snap.n++
		c.holds[slot] = 1
		k.lockReleaseSlot(c, slot)
	}
	return snap
}

// parkReacquire restores a parkRelease snapshot on whatever CPU the
// thread resumed on, paying contention there if the lock moved on.
// Snapshots are slot-resolved, so a fine-model instance reacquires the
// same instance even if the thread's notion of "its" queue changed.
func (k *Kernel) parkReacquire(snap lockSnap) {
	c := k.cur
	for i := snap.n - 1; i >= 0; i-- {
		slot := int(snap.slots[i])
		k.lockAcquireSlot(c, slot)
		c.holds[slot] = snap.count[i]
	}
}
