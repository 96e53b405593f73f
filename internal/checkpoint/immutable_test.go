package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dev"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
)

// The space TestImageIsImmutable captures: one region of immPages at
// immBase, pages 0 to immFilled-1 holding their own bytes and the rest
// unwritten, with a NIC receive ring in page 0 whose descriptors point
// into every other page.
const (
	immBase    = 0x0040_0000
	immScratch = 0x0080_0000
	immPages   = 8
	immFilled  = 6
	immRxRing  = 0x100
	immRxBuf   = 0x40 // buffer offset in each page
	immShadow  = 0xFF0
)

// immSpace is one space a write path writes every page of: the captured
// source, or one of two restores of its image.
type immSpace struct {
	k *core.Kernel
	s *obj.Space
	r *mmu.Region
}

func buildImmutableSpace(t *testing.T, k *core.Kernel) immSpace {
	t.Helper()
	s := k.NewSpace()
	reg, err := dev.MapDMA(k, s, immBase, immPages*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for p := uint32(0); p < immFilled; p++ {
		if err := k.WriteMem(s, immBase+p*mem.PageSize, bytes.Repeat([]byte{byte(0x10 + p)}, mem.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	for p := uint32(1); p < immPages; p++ {
		da := immRxRing + (p-1)*dev.NICDescBytes
		for _, w := range [][2]uint32{{dev.NICDescOff, p*mem.PageSize + immRxBuf}, {dev.NICDescOwn, 1}} {
			if err := k.WriteMem(s, immBase+da+w[0], binary.LittleEndian.AppendUint32(nil, w[1])); err != nil {
				t.Fatal(err)
			}
		}
	}
	return immSpace{k, s, reg.R}
}

// loadThenStore reads va, which refills its TLB slot, then stores word
// there: a TLB hit if the refill granted write. A second store follows,
// a TLB hit after any slow-path refill.
func loadThenStore(t *testing.T, as *mmu.AddrSpace, va, word uint32) {
	t.Helper()
	if !as.HasPTE(va) {
		if err := as.ResolveSoft(va, cpu.Read); err != nil {
			t.Fatal(err)
		}
	}
	if _, flt := as.Load32(va); flt != nil {
		t.Fatalf("load %#x: %v", va, flt)
	}
	driveStore(t, as, va, word)
	driveStore(t, as, va+4, word)
}

// immPaths are the write paths that reach frame bytes. Each writes every
// page of the space's region with data that depends on salt.
var immPaths = []struct {
	name  string
	write func(t *testing.T, sp immSpace, salt uint32)
}{
	{"TLB-hit store", func(t *testing.T, sp immSpace, salt uint32) {
		for p := uint32(0); p < immPages; p++ {
			loadThenStore(t, sp.s.AS, immBase+p*mem.PageSize+8, salt<<8|p)
		}
	}},
	{"slow-path store", func(t *testing.T, sp immSpace, salt uint32) {
		for p := uint32(0); p < immPages; p++ {
			va := immBase + p*mem.PageSize + 8
			if !sp.s.AS.HasPTE(va) {
				if err := sp.s.AS.ResolveSoft(va, cpu.Read); err != nil {
					t.Fatal(err)
				}
			}
			driveStore(t, sp.s.AS, va, salt<<8|p) // no load first: the TLB misses
		}
	}},
	{"WriteMem", func(t *testing.T, sp immSpace, salt uint32) {
		for p := uint32(0); p < immPages; p++ {
			if err := sp.k.WriteMem(sp.s, immBase+p*mem.PageSize+8, binary.LittleEndian.AppendUint32(nil, salt<<8|p)); err != nil {
				t.Fatal(err)
			}
		}
	}},
	// CopyWords copies whole page runs through AddrSpace.DirectWindow;
	// where the space grants no write window (an armed dirty-log entry)
	// it falls back to word stores, and so does this path.
	{"CopyWords direct window", func(t *testing.T, sp immSpace, salt uint32) {
		for p := uint32(0); p < immPages; p++ {
			va := immBase + p*mem.PageSize + 8
			if !sp.s.AS.HasPTE(va) {
				if err := sp.s.AS.ResolveSoft(va, cpu.Read); err != nil {
					t.Fatal(err)
				}
			}
			word := binary.LittleEndian.AppendUint32(nil, salt<<8|p)
			if w := sp.s.AS.DirectWindow(va, cpu.Write, 4); w != nil {
				copy(w, word)
			} else {
				driveStore(t, sp.s.AS, va, salt<<8|p)
			}
		}
	}},
	{"NIC DMA", func(t *testing.T, sp immSpace, salt uint32) {
		nic, err := dev.NewNIC(sp.k.Alloc, true, 0, []dev.NICQueueConfig{{
			Clock: clock.New(), DMA: sp.r, Raise: func() {},
			TxSlots: 1, RxSlots: immPages - 1, RxRingOff: immRxRing, HeadShadowOff: immShadow,
		}})
		if err != nil {
			t.Fatal(err)
		}
		nic.QueueIO(0).IOWrite32(dev.NICRegRxTail, immPages-1)
		for p := uint32(1); p < immPages; p++ {
			nic.Deliver(0, salt<<8|p, bytes.Repeat([]byte{byte(salt), byte(p)}, 32))
		}
		if c := nic.Counters(); c.RxFrames != immPages-1 {
			t.Fatalf("NIC delivered %d frames, want %d", c.RxFrames, immPages-1)
		}
	}},
	{"block device DMA", func(t *testing.T, sp immSpace, salt uint32) {
		clk := clock.New()
		bd := dev.New(clk, sp.k.Alloc, immPages, sp.r, 1, func() {})
		for p := uint32(0); p < immPages; p++ {
			if err := bd.LoadMedium(int(p), bytes.Repeat([]byte{byte(salt), byte(p)}, dev.SectorSize/2)); err != nil {
				t.Fatal(err)
			}
			bd.IOWrite32(dev.RegSector, p)
			bd.IOWrite32(dev.RegCount, 1)
			bd.IOWrite32(dev.RegDMAOff, p*mem.PageSize)
			bd.IOWrite32(dev.RegCmd, dev.CmdRead)
			clk.Advance(1)
			if st := bd.IORead32(dev.RegStatus); st != dev.StatusDone {
				t.Fatalf("page %d: block read status %d", p, st)
			}
			bd.IOWrite32(dev.RegIRQAck, 1)
		}
	}},
	// A page shared copy-on-write with a scratch slot that then drops its
	// reference: the store's COW fault finds the last reference and only
	// restores write permission, and the restarted store writes in place.
	{"ResolveCOW last reference", func(t *testing.T, sp immSpace, salt uint32) {
		as := sp.s.AS
		scratch := mmu.NewRegion(mem.PageSize, true)
		if err := as.Map(&mmu.Mapping{Region: scratch, Base: immScratch, Size: mem.PageSize, Perm: mmu.PermRW}); err != nil {
			t.Fatal(err)
		}
		for p := uint32(0); p < immPages; p++ {
			va := immBase + p*mem.PageSize
			if !mmu.ShareCOW(as, va, as, immScratch) {
				t.Fatalf("page %d: ShareCOW declined", p)
			}
			sp.k.Alloc.Free(scratch.Evict(0))
			if flt := as.Store32(va+8, salt<<8|p); flt == nil {
				t.Fatalf("page %d: store to a Cow frame did not fault", p)
			}
			if cl, _ := as.Classify(va+8, cpu.Write); cl != mmu.FaultCOW {
				t.Fatalf("page %d: fault class %v, want cow", p, cl)
			}
			if copied, err := as.ResolveCOW(va + 8); err != nil || copied {
				t.Fatalf("page %d: ResolveCOW copied %v, %v; want the last-reference case", p, copied, err)
			}
			if flt := as.Store32(va+8, salt<<8|p); flt != nil {
				t.Fatalf("page %d: restarted store: %v", p, flt)
			}
		}
	}},
}

// recordCopies deep-copies every frame record's bytes.
func recordCopies(sets ...[]checkpoint.FrameRecord) [][]byte {
	var out [][]byte
	for _, frames := range sets {
		for _, fr := range frames {
			out = append(out, bytes.Clone(fr.Data))
		}
	}
	return out
}

// TestImageIsImmutable: a checkpoint image borrows the captured frames'
// pages, and restored frames are built on the image's, so every host
// path that writes frame bytes must copy a borrowed page before writing
// it. Each write path writes every page of the captured source and of
// two restores of one image; afterwards every frame record of the base
// image, the delta and the image they make must hold the bytes it had
// at capture, and the two restores must hold what each was written.
func TestImageIsImmutable(t *testing.T) {
	cfg := core.Config{Model: core.ModelProcess}
	for _, path := range immPaths {
		t.Run(path.name, func(t *testing.T) {
			k := core.New(cfg)
			src := buildImmutableSpace(t, k)
			parent, err := checkpoint.Capture(k, src.s)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []uint32{1, immFilled} { // one own page, one unwritten
				if err := k.WriteMem(src.s, immBase+p*mem.PageSize+0x800, []byte{0xD0, byte(p)}); err != nil {
					t.Fatal(err)
				}
			}
			d, img, err := checkpoint.CaptureDelta(k, src.s, parent)
			if err != nil {
				t.Fatal(err)
			}
			if len(d.Frames) != 2 || d.CleanFrames == 0 {
				t.Fatalf("delta carries %d frames and %d parent references; want 2 and some", len(d.Frames), d.CleanFrames)
			}
			want := recordCopies(parent.Frames, d.Frames, img.Frames)
			unchanged := func(after string) {
				t.Helper()
				for i, got := range recordCopies(parent.Frames, d.Frames, img.Frames) {
					if !bytes.Equal(got, want[i]) {
						t.Fatalf("after %s: frame record %d changed", after, i)
					}
				}
			}

			path.write(t, src, 1)
			unchanged("writing the source")

			var restored [2]immSpace
			for i := range restored {
				k2 := core.New(cfg)
				s2, _, err := checkpoint.Restore(k2, img)
				if err != nil {
					t.Fatal(err)
				}
				restored[i] = immSpace{k2, s2, s2.AS.MappingAt(immBase).Region}
			}
			for i, sp := range restored {
				path.write(t, sp, uint32(2+i))
				unchanged("writing a restore")
			}
			a, b := restored[0].r.Frames(), restored[1].r.Frames()
			for p := range a {
				if a[p] == nil || b[p] == nil || bytes.Equal(a[p].Data, b[p].Data) {
					t.Fatalf("page %d reads the same in both restores: they share its bytes", p)
				}
			}
		})
	}
}
