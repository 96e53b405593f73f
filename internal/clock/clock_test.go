package clock

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUnitConversions(t *testing.T) {
	if got := Micros(200); got != 1 {
		t.Errorf("Micros(200) = %v, want 1", got)
	}
	if got := Cycles(1); got != 200 {
		t.Errorf("Cycles(1) = %v, want 200", got)
	}
	if CyclesPerMillisecond != 200000 {
		t.Errorf("CyclesPerMillisecond = %d, want 200000", CyclesPerMillisecond)
	}
}

func TestAdvanceMovesTime(t *testing.T) {
	c := New()
	if c.Now() != 0 {
		t.Fatalf("new clock at %d, want 0", c.Now())
	}
	c.Advance(100)
	if c.Now() != 100 {
		t.Fatalf("after Advance(100), Now = %d", c.Now())
	}
	c.AdvanceTo(250)
	if c.Now() != 250 {
		t.Fatalf("after AdvanceTo(250), Now = %d", c.Now())
	}
}

func TestAdvanceToBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo backwards did not panic")
		}
	}()
	c := New()
	c.Advance(10)
	c.AdvanceTo(5)
}

func TestTimerFiresAtDeadline(t *testing.T) {
	c := New()
	var firedAt uint64
	c.After(50, func(now uint64) { firedAt = now })
	c.Advance(49)
	if firedAt != 0 {
		t.Fatalf("timer fired early at %d", firedAt)
	}
	c.Advance(1)
	if firedAt != 50 {
		t.Fatalf("timer fired at %d, want 50", firedAt)
	}
}

func TestTimerCallbackSeesExactDeadline(t *testing.T) {
	c := New()
	var at uint64
	c.After(30, func(now uint64) { at = now })
	// Advance far past: the callback must still observe now == 30.
	c.Advance(1000)
	if at != 30 {
		t.Fatalf("callback saw now=%d, want 30", at)
	}
	if c.Now() != 1000 {
		t.Fatalf("clock rests at %d, want 1000", c.Now())
	}
}

func TestTimersFireInDeadlineOrder(t *testing.T) {
	c := New()
	var order []int
	c.After(30, func(uint64) { order = append(order, 3) })
	c.After(10, func(uint64) { order = append(order, 1) })
	c.After(20, func(uint64) { order = append(order, 2) })
	c.Advance(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", order)
	}
}

func TestEqualDeadlinesFIFO(t *testing.T) {
	c := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		c.After(10, func(uint64) { order = append(order, i) })
	}
	c.Advance(10)
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: order = %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	c := New()
	fired := false
	tm := c.After(10, func(uint64) { fired = true })
	if !c.Cancel(tm) {
		t.Fatal("Cancel returned false for pending timer")
	}
	if c.Cancel(tm) {
		t.Fatal("second Cancel returned true")
	}
	c.Advance(100)
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	c := New()
	var order []int
	t1 := c.After(10, func(uint64) { order = append(order, 1) })
	t2 := c.After(20, func(uint64) { order = append(order, 2) })
	c.After(30, func(uint64) { order = append(order, 3) })
	c.Cancel(t2)
	_ = t1
	c.Advance(100)
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("order after cancel = %v, want [1 3]", order)
	}
}

func TestAdvanceToNextTimer(t *testing.T) {
	c := New()
	if c.AdvanceToNextTimer() {
		t.Fatal("AdvanceToNextTimer with empty heap returned true")
	}
	fired := false
	c.After(500, func(uint64) { fired = true })
	if !c.AdvanceToNextTimer() {
		t.Fatal("AdvanceToNextTimer returned false with pending timer")
	}
	if !fired || c.Now() != 500 {
		t.Fatalf("fired=%v now=%d, want true 500", fired, c.Now())
	}
}

func TestTimerRegisteredDuringCallbackDoesNotFireInSameBatchIfLater(t *testing.T) {
	c := New()
	var got []string
	c.After(10, func(uint64) {
		got = append(got, "a")
		c.After(5, func(uint64) { got = append(got, "b") })
	})
	c.Advance(12)
	if len(got) != 1 || got[0] != "a" {
		t.Fatalf("got %v, want [a] (b due at 15 > 12)", got)
	}
	c.Advance(3)
	if len(got) != 2 || got[1] != "b" {
		t.Fatalf("got %v, want [a b]", got)
	}
}

func TestTimerRegisteredDuringCallbackFiresIfWithinRange(t *testing.T) {
	c := New()
	var got []string
	c.After(10, func(uint64) {
		got = append(got, "a")
		c.After(2, func(uint64) { got = append(got, "b") }) // due 12 <= 20
	})
	c.Advance(20)
	if len(got) != 2 || got[1] != "b" {
		t.Fatalf("got %v, want [a b]", got)
	}
}

func TestNextDeadline(t *testing.T) {
	c := New()
	if _, ok := c.NextDeadline(); ok {
		t.Fatal("NextDeadline on empty clock returned ok")
	}
	c.After(42, nil)
	d, ok := c.NextDeadline()
	if !ok || d != 42 {
		t.Fatalf("NextDeadline = %d,%v want 42,true", d, ok)
	}
}

// Property: for any sequence of timer registrations, advancing far enough
// fires every timer exactly once, in nondecreasing deadline order.
func TestPropertyAllTimersFireOnceInOrder(t *testing.T) {
	f := func(deltas []uint16) bool {
		c := New()
		var fires []uint64
		for _, d := range deltas {
			dd := uint64(d)
			c.After(dd, func(now uint64) { fires = append(fires, now) })
		}
		c.Advance(1 << 20)
		if len(fires) != len(deltas) {
			return false
		}
		for i := 1; i < len(fires); i++ {
			if fires[i] < fires[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved Advance calls never lose or duplicate timer fires.
func TestPropertyChunkedAdvanceEquivalent(t *testing.T) {
	f := func(deadlines []uint16, chunks []uint8) bool {
		c1, c2 := New(), New()
		n1, n2 := 0, 0
		for _, d := range deadlines {
			c1.At(uint64(d), func(uint64) { n1++ })
			c2.At(uint64(d), func(uint64) { n2++ })
		}
		c1.Advance(1 << 20)
		var total uint64
		for _, ch := range chunks {
			c2.Advance(uint64(ch))
			total += uint64(ch)
		}
		c2.Advance(1<<20 - total)
		return n1 == n2 && n1 == len(deadlines)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// rearmModel is the reference for Rearm: the same reusable-timer surface
// built from Cancel followed by At, a fresh Timer per arming.
type rearmModel struct {
	c  *Clock
	t  *Timer // nil until first armed: like NewTimer, reads as cancelled
	fn func(now uint64)
}

func (m *rearmModel) rearm(deadline uint64) {
	m.c.Cancel(m.t)
	m.t = m.c.At(deadline, m.fn)
}
func (m *rearmModel) cancel() bool { return m.c.Cancel(m.t) }
func (m *rearmModel) fired() bool  { return m.t == nil || m.t.Fired() }

// TestRearmEqualsCancelThenAt runs one random script of arms, cancels,
// advances and interleaved At calls — deadlines drawn from a handful of
// values so equal-deadline ties are the norm — against a Rearm'd timer on
// one clock and the Cancel+At model on another. The firing order (the
// reusable timer's position among equal deadlines included), Fired(),
// Cancel's answer and Pending() must agree after every step.
func TestRearmEqualsCancelThenAt(t *testing.T) {
	const self = -1 // the reusable timer's id in the firing log
	type event struct {
		id  int
		now uint64
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var gotLog, wantLog []event
		got, want := New(), New()
		tm := got.NewTimer(func(now uint64) { gotLog = append(gotLog, event{self, now}) })
		model := &rearmModel{c: want, fn: func(now uint64) { wantLog = append(wantLog, event{self, now}) }}
		deadline := func() uint64 { return got.Now() + 10*uint64(rng.Intn(4)) }
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 3: // arm: pending, fired and cancelled timers alike
				d := deadline()
				got.Rearm(tm, d)
				model.rearm(d)
			case op < 6: // an ordinary timer, often tying with the reusable one
				d, id := deadline(), step
				got.At(d, func(now uint64) { gotLog = append(gotLog, event{id, now}) })
				want.At(d, func(now uint64) { wantLog = append(wantLog, event{id, now}) })
			case op < 7:
				if g, w := got.Cancel(tm), model.cancel(); g != w {
					t.Fatalf("seed %d step %d: Cancel = %v, model %v", seed, step, g, w)
				}
			default:
				delta := uint64(rng.Intn(15))
				if g, w := got.Advance(delta), want.Advance(delta); g != w {
					t.Fatalf("seed %d step %d: Advance fired %d timers, model %d", seed, step, g, w)
				}
			}
			if tm.Fired() != model.fired() {
				t.Fatalf("seed %d step %d: Fired = %v, model %v", seed, step, tm.Fired(), model.fired())
			}
			if got.Pending() != want.Pending() {
				t.Fatalf("seed %d step %d: Pending = %d, model %d", seed, step, got.Pending(), want.Pending())
			}
			if d, ok := got.NextDeadline(); ok {
				if wd, _ := want.NextDeadline(); d != wd {
					t.Fatalf("seed %d step %d: NextDeadline = %d, model %d", seed, step, d, wd)
				}
			}
			if len(gotLog) != len(wantLog) {
				t.Fatalf("seed %d step %d: %d firings, model %d", seed, step, len(gotLog), len(wantLog))
			}
			for i := range gotLog {
				if gotLog[i] != wantLog[i] {
					t.Fatalf("seed %d step %d: firing %d = %+v, model %+v", seed, step, i, gotLog[i], wantLog[i])
				}
			}
		}
		selfFirings := 0
		for _, e := range gotLog {
			if e.id == self {
				selfFirings++
			}
		}
		if selfFirings < 10 {
			t.Fatalf("seed %d: reusable timer fired only %d times", seed, selfFirings)
		}
	}
}

// TestRearmQueuesBehindEqualDeadlines spells out the tie rule the kernel's
// quantum timer depends on: re-arming takes a fresh sequence number, so
// the timer fires after every timer already registered for that deadline
// even though it was first registered before them.
func TestRearmQueuesBehindEqualDeadlines(t *testing.T) {
	c := New()
	var order []string
	tm := c.NewTimer(func(uint64) { order = append(order, "reused") })
	if !tm.Fired() || tm.Stop() || c.Pending() != 0 {
		t.Fatal("a new timer must start cancelled: not pending, Fired, Stop a no-op")
	}
	c.Rearm(tm, 100)
	c.At(50, func(uint64) { order = append(order, "other") })
	c.Rearm(tm, 50) // pending → moved, behind "other"
	c.Advance(60)
	c.Rearm(tm, 80) // fired → armed again
	c.At(80, func(uint64) { order = append(order, "late") })
	c.Cancel(tm)
	c.Rearm(tm, 80) // cancelled → armed again, behind "late"
	c.Advance(40)
	if got, want := fmt.Sprint(order), "[other reused late reused]"; got != want {
		t.Fatalf("firing order %s, want %s", got, want)
	}
	if !tm.Fired() || c.Pending() != 0 {
		t.Fatalf("after the last firing: Fired=%v Pending=%d", tm.Fired(), c.Pending())
	}
}

func TestRearmForeignTimerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Rearm of another clock's timer did not panic")
		}
	}()
	New().Rearm(New().NewTimer(nil), 1)
}

// TestRearmDoesNotAllocate pins the point of Rearm: arming, moving,
// cancelling and firing one reusable timer allocates nothing.
func TestRearmDoesNotAllocate(t *testing.T) {
	c := New()
	fired := 0
	tm := c.NewTimer(func(uint64) { fired++ })
	for i := uint64(0); i < 8; i++ { // other pending timers, so the heap has depth
		c.At(1<<40+i, nil)
	}
	c.Rearm(tm, 1) // grows the heap's backing array once
	allocs := testing.AllocsPerRun(1000, func() {
		c.Rearm(tm, c.Now()+100) // pending → moved
		c.Cancel(tm)
		c.Rearm(tm, c.Now()+10) // cancelled → armed
		c.Advance(10)           // fires
		c.Rearm(tm, c.Now()+50) // fired → armed
	})
	if allocs != 0 {
		t.Fatalf("Rearm cycle allocates %.1f objects, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("timer never fired")
	}
}
