package mem

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAllocZeroed(t *testing.T) {
	a := NewAllocator(4)
	f, err := a.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Data) != PageSize {
		t.Fatalf("frame size %d, want %d", len(f.Data), PageSize)
	}
	for i, b := range f.Data {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
}

func TestReuseIsZeroed(t *testing.T) {
	a := NewAllocator(1)
	f, _ := a.Alloc()
	f.Data[17] = 0xAB
	a.Free(f)
	g, err := a.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if g.Data[17] != 0 {
		t.Fatal("reused frame not zeroed")
	}
}

func TestExhaustion(t *testing.T) {
	a := NewAllocator(2)
	f1, _ := a.Alloc()
	if _, err := a.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(); err != ErrNoMemory {
		t.Fatalf("err = %v, want ErrNoMemory", err)
	}
	a.Free(f1)
	if _, err := a.Alloc(); err != nil {
		t.Fatalf("alloc after free failed: %v", err)
	}
}

func TestAccounting(t *testing.T) {
	a := NewAllocator(8)
	var frames []*Frame
	for i := 0; i < 5; i++ {
		f, _ := a.Alloc()
		frames = append(frames, f)
	}
	if a.InUse() != 5 || a.Peak() != 5 {
		t.Fatalf("InUse=%d Peak=%d, want 5 5", a.InUse(), a.Peak())
	}
	a.Free(frames[0])
	a.Free(frames[1])
	if a.InUse() != 3 || a.Peak() != 5 {
		t.Fatalf("InUse=%d Peak=%d, want 3 5", a.InUse(), a.Peak())
	}
	if a.BytesInUse() != 3*PageSize {
		t.Fatalf("BytesInUse=%d", a.BytesInUse())
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := NewAllocator(2)
	f, _ := a.Alloc()
	a.Free(f)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(f)
}

func TestUniquePFNs(t *testing.T) {
	a := NewAllocator(16)
	seen := map[uint32]bool{}
	for i := 0; i < 16; i++ {
		f, _ := a.Alloc()
		if seen[f.PFN] {
			t.Fatalf("duplicate PFN %d", f.PFN)
		}
		seen[f.PFN] = true
	}
}

func TestDefaultSize(t *testing.T) {
	a := NewAllocator(0)
	if a.Limit() != DefaultFrames {
		t.Fatalf("Limit=%d, want %d", a.Limit(), DefaultFrames)
	}
	if DefaultFrames*PageSize != 64<<20 {
		t.Fatal("DefaultFrames is not 64MB")
	}
}

func TestPageRoundTrunc(t *testing.T) {
	cases := []struct{ in, round, trunc uint32 }{
		{0, 0, 0},
		{1, PageSize, 0},
		{PageSize, PageSize, PageSize},
		{PageSize + 1, 2 * PageSize, PageSize},
		{3*PageSize - 1, 3 * PageSize, 2 * PageSize},
	}
	for _, c := range cases {
		if got := PageRound(c.in); got != c.round {
			t.Errorf("PageRound(%d)=%d want %d", c.in, got, c.round)
		}
		if got := PageTrunc(c.in); got != c.trunc {
			t.Errorf("PageTrunc(%d)=%d want %d", c.in, got, c.trunc)
		}
	}
}

// Property: PageTrunc(v) <= v < PageTrunc(v)+PageSize and VPN consistent.
func TestPropertyPageMath(t *testing.T) {
	f := func(v uint32) bool {
		tr := PageTrunc(v)
		return tr <= v && (v-tr) < PageSize && VPN(v) == tr>>PageShift
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: alloc/free in any pattern keeps InUse == allocs-frees and never
// exceeds the limit.
func TestPropertyAllocFreePattern(t *testing.T) {
	f := func(ops []bool) bool {
		a := NewAllocator(32)
		var live []*Frame
		for _, alloc := range ops {
			if alloc {
				fr, err := a.Alloc()
				if err != nil {
					if len(live) != 32 {
						return false
					}
					continue
				}
				live = append(live, fr)
			} else if len(live) > 0 {
				a.Free(live[len(live)-1])
				live = live[:len(live)-1]
			}
			if a.InUse() != len(live) || a.InUse() > 32 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Shared frames are recycled only when the last reference is dropped, and
// InUse counts frames, not references.
func TestShareRefcount(t *testing.T) {
	a := NewAllocator(4)
	f, _ := a.Alloc()
	if f.Refs != 1 || f.Shared() {
		t.Fatalf("fresh frame Refs=%d Shared=%v, want 1 false", f.Refs, f.Shared())
	}
	a.Share(f)
	a.Share(f)
	if f.Refs != 3 || !f.Shared() {
		t.Fatalf("Refs=%d Shared=%v after two shares, want 3 true", f.Refs, f.Shared())
	}
	if a.InUse() != 1 {
		t.Fatalf("InUse=%d, want 1 (refs are not frames)", a.InUse())
	}
	f.Data[3] = 0x5a
	a.Unshare(f)
	a.Free(f)
	if f.Refs != 1 || a.InUse() != 1 {
		t.Fatalf("Refs=%d InUse=%d after dropping two refs, want 1 1", f.Refs, a.InUse())
	}
	if f.Data[3] != 0x5a {
		t.Fatal("dropping a shared reference must not clear the frame")
	}
	a.Free(f)
	if f.Refs != 0 || a.InUse() != 0 {
		t.Fatalf("Refs=%d InUse=%d after final free, want 0 0", f.Refs, a.InUse())
	}
	g, _ := a.Alloc()
	if g != f {
		t.Fatal("frame not recycled after last reference dropped")
	}
	if g.Refs != 1 || g.Cow || g.Data[3] != 0 {
		t.Fatalf("recycled frame Refs=%d Cow=%v Data[3]=%d, want 1 false 0",
			g.Refs, g.Cow, g.Data[3])
	}
}

// Share and Unshare on frames in invalid states panic with the frame's
// identity rather than corrupting the count.
func TestShareUnsharePanics(t *testing.T) {
	a := NewAllocator(2)
	f, _ := a.Alloc()

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Unshare of unshared frame", func() { a.Unshare(f) })
	a.Free(f)
	mustPanic("Share of freed frame", func() { a.Share(f) })
	mustPanic("Unshare of freed frame", func() { a.Unshare(f) })
	mustPanic("Share of nil", func() { a.Share(nil) })
}

// A double free by way of refcount underflow reports the frame identity.
func TestDoubleFreeMentionsFrame(t *testing.T) {
	a := NewAllocator(2)
	f, _ := a.Alloc()
	f.PFN = 0 // deterministic identity
	a.Free(f)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double free did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "frame 0") {
			t.Fatalf("panic %v does not identify the frame", r)
		}
	}()
	a.Free(f)
}

// TestAllocFromMatchesAlloc pins AllocFrom to Alloc's bookkeeping: the
// same op sequence through either constructor leaves the same PFNs,
// refcounts, generations, in-use and peak counts and exhaustion point —
// only the contents (and, when adopting, who owns the buffer) differ.
func TestAllocFromMatchesAlloc(t *testing.T) {
	page := func(b byte) []byte {
		p := make([]byte, PageSize)
		for i := range p {
			p[i] = b + byte(i%5)
		}
		return p
	}
	for _, adopt := range []bool{false, true} {
		ref, a := NewAllocator(3), NewAllocator(3)
		var refLive, live []*Frame
		step := func(free int) {
			t.Helper()
			if free >= 0 {
				ref.Free(refLive[free])
				a.Free(live[free])
				refLive = append(refLive[:free], refLive[free+1:]...)
				live = append(live[:free], live[free+1:]...)
			} else {
				src := page(byte(len(live)) + 0x30)
				want := append([]byte(nil), src...)
				rf, rerr := ref.Alloc()
				f, err := a.AllocFrom(src, adopt)
				if err != rerr {
					t.Fatalf("adopt=%v: AllocFrom err %v, Alloc err %v", adopt, err, rerr)
				}
				if err != nil {
					return
				}
				if f.PFN != rf.PFN || f.Refs != rf.Refs || f.Gen != rf.Gen || f.Cow != rf.Cow {
					t.Fatalf("adopt=%v: frame %+v vs Alloc's %+v", adopt, *f, *rf)
				}
				if string(f.Data) != string(want) || len(f.Data) != PageSize {
					t.Fatalf("adopt=%v: frame %d does not hold the source bytes", adopt, f.PFN)
				}
				grown := rf.Gen == 0
				if owns := &f.Data[0] == &src[0]; owns != (adopt && grown) {
					t.Fatalf("adopt=%v grown=%v: frame uses the caller's buffer = %v", adopt, grown, owns)
				}
				f.Cow = true // must not survive recycling, as with Alloc
				rf.Cow = true
				refLive, live = append(refLive, rf), append(live, f)
			}
			if a.InUse() != ref.InUse() || a.Peak() != ref.Peak() {
				t.Fatalf("adopt=%v: InUse/Peak %d/%d vs Alloc's %d/%d", adopt, a.InUse(), a.Peak(), ref.InUse(), ref.Peak())
			}
		}
		for _, op := range []int{-1, -1, -1, -1 /* ErrNoMemory */, 1, 0, -1 /* recycled */, -1, -1 /* full again */} {
			step(op)
		}
		if a.InUse() != 3 {
			t.Fatalf("adopt=%v: sequence ended with %d frames in use, want the limit", adopt, a.InUse())
		}
	}
}

func TestAllocFromRejectsShortPage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AllocFrom accepted a buffer that is not one page")
		}
	}()
	NewAllocator(1).AllocFrom(make([]byte, PageSize-1), true)
}
