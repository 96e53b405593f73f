package checkpoint_test

// Shared-frame fidelity: a checkpoint of a space whose regions alias a
// frame copy-on-write (the zero-copy IPC state) must record the frame
// once and restore the same sharing structure — one backing frame, the
// right refcount, the COW write protection — not a silent deep copy that
// would leak memory and lose the break-on-store semantics.

import (
	"bytes"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/sys"
)

const (
	cowABase = 0x0100_0000 // "sender" window
	cowBBase = 0x0200_0000 // "receiver" window
)

// buildSharedSpace creates a space with two 2-page regions where region
// B's page 0 COW-shares region A's page 0 (A's page 1 stays private), and
// returns the space plus both region handles' VAs.
func buildSharedSpace(t *testing.T, k *core.Kernel) (*obj.Space, uint32, uint32) {
	t.Helper()
	s := k.NewSpace()
	mk := func(base uint32) *obj.Region {
		r := &obj.Region{Header: obj.Header{Type: sys.ObjRegion}, R: mmu.NewRegion(2*mem.PageSize, true)}
		k.BindFresh(s, r)
		if _, err := k.MapInto(s, r, base, 0, 2*mem.PageSize, mmu.PermRW); err != nil {
			t.Fatal(err)
		}
		return r
	}
	ra := mk(cowABase)
	rb := mk(cowBBase)
	for _, page := range []uint32{0, mem.PageSize} {
		f, err := k.Alloc.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		data := k.Alloc.Writable(f)
		for i := range data {
			data[i] = byte(0x40 + int(page>>12) + i%7)
		}
		ra.R.Populate(page, f)
	}
	if !mmu.ShareCOW(s.AS, cowABase, s.AS, cowBBase) {
		t.Fatal("ShareCOW refused the setup transfer")
	}
	return s, ra.Hdr().VA, rb.Hdr().VA
}

// driveStore plays the fault-restart loop the kernel runs for a guest
// store, so the restored space's COW protection can be exercised without
// spinning up threads.
func driveStore(t *testing.T, as *mmu.AddrSpace, va, v uint32) (cowBreaks int) {
	t.Helper()
	for i := 0; i < 4; i++ {
		if f := as.Store32(va, v); f == nil {
			return cowBreaks
		}
		switch cl, _ := as.Classify(va, cpu.Write); cl {
		case mmu.FaultSoft:
			if err := as.ResolveSoft(va, cpu.Write); err != nil {
				t.Fatal(err)
			}
		case mmu.FaultCOW:
			if _, err := as.ResolveCOW(va); err != nil {
				t.Fatal(err)
			}
			cowBreaks++
		default:
			t.Fatalf("store %#x: unexpected fault class %v", va, cl)
		}
	}
	t.Fatalf("store %#x: fault loop did not converge", va)
	return
}

func TestCheckpointSharedFrameIdentity(t *testing.T) {
	cfg := core.Configurations()[0]
	k := core.New(cfg)
	s, vaA, vaB := buildSharedSpace(t, k)

	img, err := checkpoint.Capture(k, s)
	if err != nil {
		t.Fatal(err)
	}
	// The image must hold exactly the two distinct frames (shared page 0
	// once, private page 1 once), with the COW bit recorded.
	if len(img.Frames) != 2 {
		t.Fatalf("image holds %d frames, want 2 (shared page deduplicated)", len(img.Frames))
	}
	cows := 0
	for _, fr := range img.Frames {
		if fr.Cow {
			cows++
		}
	}
	if cows != 1 {
		t.Fatalf("image records %d COW frames, want 1", cows)
	}

	// Baseline: what a bare space costs in frames (the reserved handle
	// window), so the image's own footprint can be isolated.
	k2 := core.New(cfg)
	base := k2.Alloc.InUse()
	k2.NewSpace()
	spaceCost := k2.Alloc.InUse() - base

	k2 = core.New(cfg)
	before := k2.Alloc.InUse()
	s2, _, err := checkpoint.Restore(k2, img)
	if err != nil {
		t.Fatal(err)
	}
	if got := k2.Alloc.InUse() - before - spaceCost; got != 2 {
		t.Fatalf("restore allocated %d image frames, want 2 (no silent deep copy)", got)
	}
	ra2 := s2.At(vaA).(*obj.Region)
	rb2 := s2.At(vaB).(*obj.Region)
	fa := ra2.R.FrameAt(0)
	fb := rb2.R.FrameAt(0)
	if fa == nil || fa != fb {
		t.Fatalf("restored regions do not alias one frame: a=%p b=%p", fa, fb)
	}
	if fa.Refs != 2 || !fa.Cow {
		t.Fatalf("restored shared frame Refs=%d Cow=%v, want 2 true", fa.Refs, fa.Cow)
	}
	if priv := ra2.R.FrameAt(mem.PageSize); priv == nil || priv.Refs != 1 || priv.Cow {
		t.Fatalf("restored private frame wrong: %+v", priv)
	}
	want, err := k.ReadMem(s, cowBBase, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k2.ReadMem(s2, cowBBase, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("restored shared page contents differ from the original")
	}

	// The restored share still breaks on store: writing through B copies
	// the page, leaves A's view intact, and drops the refcount to 1.
	if n := driveStore(t, s2.AS, cowBBase, 0xDEAD); n != 1 {
		t.Fatalf("store through restored share took %d COW breaks, want 1", n)
	}
	if ra2.R.FrameAt(0) == rb2.R.FrameAt(0) {
		t.Fatal("COW break did not separate the restored frames")
	}
	if fa2 := ra2.R.FrameAt(0); fa2.Refs != 1 {
		t.Fatalf("original frame Refs=%d after break, want 1", fa2.Refs)
	}
	a0, err := k2.ReadMem(s2, cowABase, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a0, want) {
		t.Fatal("COW break through B corrupted A's view of the page")
	}
	if v, flt := s2.AS.Load32(cowBBase); flt != nil || v != 0xDEAD {
		t.Fatalf("B's post-break read = %#x, fault=%v; want 0xDEAD", v, flt)
	}
}

// TestCheckpointSharedFrameSurvivesDoubleHop round-trips the image twice:
// sharing structure must be stable under repeated capture/restore.
func TestCheckpointSharedFrameSurvivesDoubleHop(t *testing.T) {
	cfg := core.Configurations()[0]
	k := core.New(cfg)
	s, vaA, vaB := buildSharedSpace(t, k)

	img1, err := checkpoint.Capture(k, s)
	if err != nil {
		t.Fatal(err)
	}
	k2 := core.New(cfg)
	s2, _, err := checkpoint.Restore(k2, img1)
	if err != nil {
		t.Fatal(err)
	}
	img2, err := checkpoint.Capture(k2, s2)
	if err != nil {
		t.Fatal(err)
	}
	if len(img2.Frames) != len(img1.Frames) {
		t.Fatalf("second capture holds %d frames, first %d", len(img2.Frames), len(img1.Frames))
	}
	k3 := core.New(cfg)
	s3, _, err := checkpoint.Restore(k3, img2)
	if err != nil {
		t.Fatal(err)
	}
	fa := s3.At(vaA).(*obj.Region).R.FrameAt(0)
	fb := s3.At(vaB).(*obj.Region).R.FrameAt(0)
	if fa == nil || fa != fb || fa.Refs != 2 || !fa.Cow {
		t.Fatalf("after two hops: a=%p b=%p Refs=%d — sharing structure decayed",
			fa, fb, fa.Refs)
	}
}
