package mem

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
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
	a.Writable(f)[17] = 0xAB
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
	a.Writable(f)[3] = 0x5a
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
// only the contents differ. Every AllocFrom frame, grown or recycled,
// is built on the caller's page and lent, so writing it copies the page
// and leaves the caller's bytes alone.
func TestAllocFromMatchesAlloc(t *testing.T) {
	page := func(b byte) []byte {
		p := make([]byte, PageSize)
		for i := range p {
			p[i] = b + byte(i%5)
		}
		return p
	}
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
			f, err := a.AllocFrom(src)
			if err != rerr {
				t.Fatalf("AllocFrom err %v, Alloc err %v", err, rerr)
			}
			if err != nil {
				return
			}
			if f.PFN != rf.PFN || f.Refs != rf.Refs || f.Gen != rf.Gen || f.Cow != rf.Cow {
				t.Fatalf("frame %+v vs Alloc's %+v", *f, *rf)
			}
			if &f.Data[0] != &src[0] || len(f.Data) != PageSize || cap(f.Data) != PageSize || !f.Lent() {
				t.Fatalf("frame %d is not lent the caller's page", f.PFN)
			}
			a.Writable(f)[0] ^= 0xFF
			if &f.Data[0] == &src[0] || f.Lent() || string(src) != string(want) || string(f.Data[1:]) != string(want[1:]) {
				t.Fatalf("writing frame %d did not copy the caller's page first", f.PFN)
			}
			f.Cow = true // must not survive recycling, as with Alloc
			rf.Cow = true
			refLive, live = append(refLive, rf), append(live, f)
		}
		if a.InUse() != ref.InUse() || a.Peak() != ref.Peak() {
			t.Fatalf("InUse/Peak %d/%d vs Alloc's %d/%d", a.InUse(), a.Peak(), ref.InUse(), ref.Peak())
		}
	}
	for _, op := range []int{-1, -1, -1, -1 /* ErrNoMemory */, 1, 0, -1 /* recycled */, -1, -1 /* full again */} {
		step(op)
	}
	if a.InUse() != 3 {
		t.Fatalf("sequence ended with %d frames in use, want the limit", a.InUse())
	}
}

// TestSlabFramesIsolated pins the lazy-frame contract at limits below,
// at and past the largest slab. Unwritten frames read as zeros and share
// no byte with a written one; a frame Writable materializes is exactly
// one slab page (len == cap), so neither a write nor an append through
// it reaches a neighbour; recycled frames come back zeroed, written or
// not; InUse, Peak and the ErrNoMemory point are those of one allocation
// per frame; and the carved pages plus the slab tail never exceed the
// limit, however many frames are written or recycled.
func TestSlabFramesIsolated(t *testing.T) {
	zero := make([]byte, PageSize)
	for _, limit := range []int{1, 3, 8, 64, 65, 200} {
		a := NewAllocator(limit)
		checkReserved := func(when string) {
			t.Helper()
			if reserved := a.carved + len(a.slab)/PageSize; reserved > limit {
				t.Fatalf("limit %d: %d pages carved or reserved %s", limit, reserved, when)
			}
		}
		var frames []*Frame
		for {
			f, err := a.Alloc()
			if err == ErrNoMemory {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if !f.Unwritten() || len(f.Data) != PageSize || cap(f.Data) != PageSize {
				t.Fatalf("limit %d: fresh frame %d: unwritten %v, len %d cap %d", limit, f.PFN, f.Unwritten(), len(f.Data), cap(f.Data))
			}
			frames = append(frames, f)
			if a.InUse() != len(frames) || a.Peak() != len(frames) {
				t.Fatalf("limit %d: InUse/Peak %d/%d after %d allocs", limit, a.InUse(), a.Peak(), len(frames))
			}
		}
		if len(frames) != limit || a.carved != 0 {
			t.Fatalf("limit %d: ErrNoMemory after %d frames, %d pages carved", limit, len(frames), a.carved)
		}
		// Write every other frame, each with its own byte.
		for i := 0; i < limit; i += 2 {
			d := a.Writable(frames[i])
			if frames[i].Unwritten() || len(d) != PageSize || cap(d) != PageSize || &d[0] != &frames[i].Data[0] {
				t.Fatalf("limit %d: written frame %d: unwritten %v, len %d cap %d", limit, i, frames[i].Unwritten(), len(d), cap(d))
			}
			for j := range d {
				d[j] = byte(i + 1)
			}
			checkReserved("after a write")
		}
		for i, f := range frames {
			if i%2 == 1 {
				if !f.Unwritten() || string(f.Data) != string(zero) {
					t.Fatalf("limit %d: unwritten frame %d does not read as zeros", limit, i)
				}
				continue
			}
			if g := append(f.Data, 0xEE); &g[0] == &f.Data[0] {
				t.Fatalf("limit %d: append through frame %d grew in place", limit, i)
			}
			for j, b := range f.Data {
				if b != byte(i+1) {
					t.Fatalf("limit %d: frame %d byte %d = %#x, want %#x: a neighbour wrote into it", limit, i, j, b, byte(i+1))
				}
			}
		}
		// Free the first half, written and unwritten alike; every frame
		// that comes back reads as zeros and keeps what it had: a page of
		// its own, or none.
		half := frames[:limit/2]
		for _, f := range half {
			a.Free(f)
		}
		if a.InUse() != limit-len(half) || a.Peak() != limit {
			t.Fatalf("limit %d: InUse/Peak %d/%d after freeing %d", limit, a.InUse(), a.Peak(), len(half))
		}
		carved := a.carved
		for range half {
			f, err := a.Alloc()
			if err != nil {
				t.Fatalf("limit %d: realloc: %v", limit, err)
			}
			if string(f.Data) != string(zero) {
				t.Fatalf("limit %d: recycled frame %d does not read as zeros", limit, f.PFN)
			}
		}
		if a.carved != carved {
			t.Fatalf("limit %d: recycling carved %d pages", limit, a.carved-carved)
		}
		if _, err := a.Alloc(); err != ErrNoMemory || a.InUse() != limit || a.Peak() != limit {
			t.Fatalf("limit %d: full again: err %v, InUse/Peak %d/%d", limit, err, a.InUse(), a.Peak())
		}
		// Write them all: one page each, within the limit.
		for _, f := range frames {
			a.Writable(f)[PageSize-1] = 1
			checkReserved("writing every frame")
		}
		if a.carved != limit {
			t.Fatalf("limit %d: %d pages carved for %d written frames", limit, a.carved, limit)
		}
	}
}

func TestAllocFromRejectsShortPage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AllocFrom accepted a buffer that is not one page")
		}
	}()
	NewAllocator(1).AllocFrom(make([]byte, PageSize-1))
}

// TestFrameSize pins Frame at 48 bytes: the lent flag sits in Cow's
// padding. A field past Data moves Frame into the 64-byte size class,
// which every frame the fault path grows pays for.
func TestFrameSize(t *testing.T) {
	if n := unsafe.Sizeof(Frame{}); n != 48 {
		t.Fatalf("Frame is %d bytes, want 48", n)
	}
}

// TestLentFrameRecycling: a frame that gave its own page up for a
// borrowed one comes back from the free list unwritten, never clearing
// the page it was lent, and writing it again past the slab budget takes
// a heap page: carved pages never exceed the limit.
func TestLentFrameRecycling(t *testing.T) {
	a := NewAllocator(2)
	f, _ := a.Alloc()
	g, _ := a.Alloc()
	a.Writable(f)[0] = 1
	a.Writable(g)[0] = 1 // both slab pages carved
	page := make([]byte, PageSize)
	page[7] = 0x77
	for round := 0; round < 3; round++ {
		a.Free(f)
		lent, err := a.AllocFrom(page)
		if err != nil || lent != f || !f.Lent() {
			t.Fatalf("round %d: AllocFrom gave %v, %v; want f back, lent", round, lent, err)
		}
		a.Free(f)
		z, _ := a.Alloc()
		if z != f || !f.Unwritten() || page[7] != 0x77 {
			t.Fatalf("round %d: recycled a lent frame: unwritten %v, page byte %#x", round, f.Unwritten(), page[7])
		}
		a.Writable(f)[0] = 2
		if f.Lent() || f.Unwritten() || a.carved > a.Limit() || len(f.Data) != PageSize || cap(f.Data) != PageSize {
			t.Fatalf("round %d: written frame lent %v, unwritten %v, %d pages carved of %d", round, f.Lent(), f.Unwritten(), a.carved, a.Limit())
		}
	}
}
