// Package clock provides the deterministic virtual time base for the Fluke
// kernel simulation.
//
// All time in the simulation is measured in CPU cycles of a virtual 200 MHz
// processor (the 200 MHz Pentium Pro the paper's evaluation used), so
// 200 cycles == 1 µs. Every entity that consumes simulated CPU time charges
// cycles to a single Clock; timers fire at exact cycle counts, which makes
// every experiment in the paper's evaluation bit-for-bit reproducible.
package clock

import (
	"container/heap"
	"fmt"
)

// CyclesPerMicrosecond converts between cycles and microseconds for the
// simulated 200 MHz processor.
const CyclesPerMicrosecond = 200

// CyclesPerMillisecond is 1 ms of simulated time in cycles.
const CyclesPerMillisecond = 1000 * CyclesPerMicrosecond

// Micros converts a cycle count to (fractional) microseconds.
func Micros(cycles uint64) float64 {
	return float64(cycles) / CyclesPerMicrosecond
}

// Cycles converts microseconds of simulated time to cycles.
func Cycles(micros float64) uint64 {
	return uint64(micros * CyclesPerMicrosecond)
}

// Timer is a pending virtual-time event. When the clock advances to or past
// Deadline the timer fires and its callback runs exactly once.
type Timer struct {
	Deadline uint64
	Callback func(now uint64)

	owner *Clock // the clock the timer is armed on
	index int    // heap index; -1 when not queued
	seq   uint64
	fired bool
}

// Fired reports whether the timer is done: it has fired or was cancelled.
func (t *Timer) Fired() bool { return t.fired }

// Stop cancels the timer on whichever clock armed it — with one clock per
// simulated CPU, the canceller no longer needs to know (or be on) the
// owning CPU. Stopping a nil, fired, or cancelled timer is a no-op. It
// reports whether the timer was pending.
func (t *Timer) Stop() bool {
	if t == nil || t.owner == nil {
		return false
	}
	return t.owner.Cancel(t)
}

// Clock is the global virtual time source. It is not safe for concurrent
// use; the simulation is single-threaded by construction (only one simulated
// CPU context runs at a time).
type Clock struct {
	now    uint64
	timers timerHeap
	seq    uint64
}

// New returns a Clock at cycle zero.
func New() *Clock {
	return &Clock{}
}

// Now returns the current virtual time in cycles.
func (c *Clock) Now() uint64 { return c.now }

// NowMicros returns the current virtual time in microseconds.
func (c *Clock) NowMicros() float64 { return Micros(c.now) }

// After registers a callback to fire delta cycles from now and returns the
// timer so it can be cancelled.
func (c *Clock) After(delta uint64, fn func(now uint64)) *Timer {
	return c.At(c.now+delta, fn)
}

// At registers a callback to fire when virtual time reaches deadline. A
// deadline at or before the current time fires on the next Advance(0).
func (c *Clock) At(deadline uint64, fn func(now uint64)) *Timer {
	t := &Timer{Deadline: deadline, Callback: fn, owner: c, seq: c.seq}
	c.seq++
	heap.Push(&c.timers, t)
	return t
}

// NewTimer returns a timer of c that runs fn each time it fires. It starts
// out in the cancelled state (not pending, Fired reports true) until Rearm
// arms it; one such timer re-armed over and over replaces an At per arming.
func (c *Clock) NewTimer(fn func(now uint64)) *Timer {
	return &Timer{Callback: fn, owner: c, index: -1, fired: true}
}

// Rearm schedules t, a timer of this clock, to fire at deadline, whether
// it is pending, fired or cancelled. It is exactly Cancel followed by At
// with t's callback — the timer takes a fresh sequence number, so it queues
// behind every already-registered timer with an equal deadline — but
// reuses t instead of allocating.
func (c *Clock) Rearm(t *Timer, deadline uint64) {
	if t.owner != c {
		panic("clock: Rearm of another clock's timer")
	}
	t.Deadline = deadline
	t.seq = c.seq
	c.seq++
	t.fired = false
	if t.index >= 0 {
		heap.Fix(&c.timers, t.index)
		return
	}
	heap.Push(&c.timers, t)
}

// Cancel removes a pending timer. Cancelling an already-fired or cancelled
// timer is a no-op. It reports whether the timer was pending.
func (c *Clock) Cancel(t *Timer) bool {
	if t == nil || t.fired || t.index < 0 {
		return false
	}
	heap.Remove(&c.timers, t.index)
	t.fired = true // never fire
	return true
}

// NextDeadline returns the deadline of the earliest pending timer and true,
// or 0 and false if no timers are pending.
func (c *Clock) NextDeadline() (uint64, bool) {
	if len(c.timers) == 0 {
		return 0, false
	}
	return c.timers[0].Deadline, true
}

// Advance moves virtual time forward by delta cycles, firing every timer
// whose deadline falls within the advanced range, in deadline order (FIFO
// among equal deadlines). It returns the number of timers fired.
//
// Timer callbacks run with the clock set exactly to their deadline; after
// all due timers fire, time rests at the full advanced position.
func (c *Clock) Advance(delta uint64) int {
	target := c.now + delta
	fired := 0
	for len(c.timers) > 0 && c.timers[0].Deadline <= target {
		t := heap.Pop(&c.timers).(*Timer)
		if t.Deadline > c.now {
			c.now = t.Deadline
		}
		t.fired = true
		fired++
		if t.Callback != nil {
			t.Callback(c.now)
		}
	}
	if target > c.now {
		c.now = target
	}
	return fired
}

// AdvanceTo moves virtual time forward to the given absolute cycle count,
// firing due timers. Moving backwards is a programming error and panics.
func (c *Clock) AdvanceTo(deadline uint64) int {
	if deadline < c.now {
		panic(fmt.Sprintf("clock: AdvanceTo moving backwards: now=%d target=%d", c.now, deadline))
	}
	return c.Advance(deadline - c.now)
}

// AdvanceToNextTimer jumps virtual time to the earliest pending deadline and
// fires it (and any timers sharing that deadline). It reports whether any
// timer was pending. This models an idle CPU halting until the next
// interrupt.
func (c *Clock) AdvanceToNextTimer() bool {
	d, ok := c.NextDeadline()
	if !ok {
		return false
	}
	if d < c.now {
		d = c.now
	}
	c.AdvanceTo(d)
	return true
}

// Pending returns the number of timers waiting to fire.
func (c *Clock) Pending() int { return len(c.timers) }

// timerHeap orders timers by deadline, breaking ties by registration order
// so same-deadline timers fire FIFO (determinism).
type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].Deadline != h[j].Deadline {
		return h[i].Deadline < h[j].Deadline
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*Timer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
