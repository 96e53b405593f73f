package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
)

// refWriteMem and refReadMem are Kernel.WriteMem and Kernel.ReadMem as
// they stood before the page windows: every byte through the faulting
// store and load paths. The oracle for TestHostMemMatchesByteLoop.
func refWriteMem(s *obj.Space, va uint32, data []byte) error {
	for i, b := range data {
		a := va + uint32(i)
		if f := s.AS.Store8(a, b); f != nil {
			cl, _ := s.AS.Classify(a, cpu.Write)
			if cl != mmu.FaultSoft {
				return fmt.Errorf("core: WriteMem at %#x: %v fault", a, cl)
			}
			if err := s.AS.ResolveSoft(a, cpu.Write); err != nil {
				return err
			}
			if f := s.AS.Store8(a, b); f != nil {
				return fmt.Errorf("core: WriteMem at %#x: fault persists", a)
			}
		}
	}
	return nil
}

func refReadMem(s *obj.Space, va uint32, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := range out {
		a := va + uint32(i)
		b, f := s.AS.Load8(a)
		if f != nil {
			cl, _ := s.AS.Classify(a, cpu.Read)
			if cl != mmu.FaultSoft {
				return nil, fmt.Errorf("core: ReadMem at %#x: %v fault", a, cl)
			}
			if err := s.AS.ResolveSoft(a, cpu.Read); err != nil {
				return nil, err
			}
			b, f = s.AS.Load8(a)
			if f != nil {
				return nil, fmt.Errorf("core: ReadMem at %#x: fault persists", a)
			}
		}
		out[i] = b
	}
	return out, nil
}

// hostMemWorld is one kernel with a space laid out for the differential:
// hmPages pages of a demand-zero region mapped read-write at hmBase, the
// same region mapped read-only at hmRO, and a peer space to share into.
type hostMemWorld struct {
	k    *core.Kernel
	s    *obj.Space
	peer *obj.Space
	r    *mmu.Region
}

const (
	hmBase  = 0x0040_0000
	hmRO    = 0x0080_0000
	hmPages = 8
	hmMMIO  = hmBase + hmPages*mem.PageSize // a device window, where mapped, abuts the region
)

type nullIO struct{}

func (nullIO) IORead32(uint32) uint32   { return 0 }
func (nullIO) IOWrite32(uint32, uint32) {}

func newHostMemWorld(t *testing.T, noFast bool) *hostMemWorld {
	t.Helper()
	k := core.New(core.Config{Model: core.ModelInterrupt, DisableFastPath: noFast})
	t.Cleanup(k.Shutdown)
	w := &hostMemWorld{k: k, s: k.NewSpace(), peer: k.NewSpace()}
	r, err := k.NewBoundRegion(w.s, core.KObjBase+0x900, hmPages*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	w.r = r.R
	for _, m := range []struct {
		s    *obj.Space
		base uint32
		perm mmu.Perm
	}{{w.s, hmBase, mmu.PermRW}, {w.s, hmRO, mmu.PermRead}} {
		if _, err := k.MapInto(m.s, r, m.base, 0, hmPages*mem.PageSize, m.perm); err != nil {
			t.Fatal(err)
		}
	}
	pr, err := k.NewBoundRegion(w.peer, core.KObjBase+0x900, hmPages*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.MapInto(w.peer, pr, hmBase, 0, hmPages*mem.PageSize, mmu.PermRW); err != nil {
		t.Fatal(err)
	}
	return w
}

// hostMemOp is one step of a scenario, applied to both worlds: through
// the kernel's functions on one, through the byte loops on the other.
type hostMemOp struct {
	write bool
	zeros bool // a write of n zero bytes: Kernel.Populate on one side
	va    uint32
	n     int
	fails string // the error both sides must report, "" for none
	// prep, when set, runs instead of a transfer: it rearranges the space
	// (shares a page, arms the tracker, maps a device) identically in both.
	prep func(t *testing.T, w *hostMemWorld)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func pattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = salt ^ byte(i*7+1)
	}
	return b
}

// TestPopulateKeepsZeroPages: populating absent demand-zero pages, and
// writing zeros over unwritten ones, makes them present and mapped
// without giving any a page of its own; a later store does.
func TestPopulateKeepsZeroPages(t *testing.T) {
	w := newHostMemWorld(t, false)
	if err := w.k.Populate(w.s, hmBase, 3*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := w.k.WriteMem(w.s, hmBase+mem.PageSize+5, make([]byte, 9)); err != nil {
		t.Fatal(err)
	}
	faults := w.s.AS.Faults
	for p := uint32(0); p < 3; p++ {
		f := w.r.FrameAt(p * mem.PageSize)
		if f == nil || !f.Unwritten() || !w.s.AS.HasPTE(hmBase+p*mem.PageSize) {
			t.Fatalf("page %d: frame %v, unwritten %v, mapped %v", p, f, f != nil && f.Unwritten(), w.s.AS.HasPTE(hmBase+p*mem.PageSize))
		}
	}
	if err := w.k.WriteMem(w.s, hmBase+mem.PageSize, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if f := w.r.FrameAt(mem.PageSize); f.Unwritten() || f.Data[0] != 1 || w.s.AS.Faults != faults {
		t.Fatalf("store after populate: unwritten %v, byte %d, %d new faults", f.Unwritten(), f.Data[0], w.s.AS.Faults-faults)
	}
}

// TestHostMemMatchesByteLoop replays scenarios that cross page boundaries
// into every kind of page WriteMem and ReadMem can meet, once through the
// kernel and once through the byte loops, with fast paths on and off.
// After every step both worlds must agree on the returned bytes, the error
// text, the region's memory, the dirty log and the space's fault count.
func TestHostMemMatchesByteLoop(t *testing.T) {
	const pg = mem.PageSize
	shareInto := func(page uint32) func(*testing.T, *hostMemWorld) {
		return func(t *testing.T, w *hostMemWorld) {
			if !mmu.ShareCOW(w.s.AS, hmBase+page*pg, w.peer.AS, hmBase+page*pg) {
				t.Fatal("ShareCOW refused")
			}
		}
	}
	arm := func(_ *testing.T, w *hostMemWorld) { w.r.StartDirtyTracking() }
	mapDevice := func(t *testing.T, w *hostMemWorld) {
		if err := w.s.AS.MapIO(hmMMIO, pg, nullIO{}); err != nil {
			t.Fatal(err)
		}
	}
	scenarios := map[string][]hostMemOp{
		"demand-zero": {
			{write: true, va: hmBase + pg - 3, n: 3*pg + 5}, // mid-page into three absent pages
			{va: hmBase + pg - 9, n: 4 * pg},                // read back, and on into an absent page
			{write: true, va: hmBase, n: pg},                // exactly one page
			{write: true, va: hmBase + 2*pg - 1, n: 2},      // two bytes, two pages
			{write: true, va: hmBase + 7*pg + 100, n: 0},    // nothing
			{va: hmBase, n: hmPages * pg},
		},
		"cow-marked": {
			{write: true, va: hmBase, n: 4 * pg},
			{prep: shareInto(2)},
			// A write stops at the shared page, or fails at once inside it;
			// reads, and writes beyond it, are unaffected.
			{write: true, va: hmBase + pg - 10, n: 2 * pg, fails: "core: WriteMem at 0x402000: cow fault"},
			{write: true, va: hmBase + 2*pg + 17, n: 4, fails: "core: WriteMem at 0x402011: cow fault"},
			{va: hmBase + pg - 10, n: 3 * pg},
			{write: true, va: hmBase + 3*pg + 1, n: 2 * pg},
		},
		"dirty-armed": {
			{write: true, va: hmBase, n: 3 * pg}, // translations installed, then armed
			{prep: arm},
			{va: hmBase, n: 2 * pg}, // reads log nothing
			{write: true, va: hmBase + pg + 1, n: pg + 1},
			{write: true, va: hmBase + 4*pg - 2, n: pg + 4}, // pages born under the tracker
			{prep: arm},
			{write: true, va: hmBase + 2*pg - 1, n: 1},
		},
		"read-only": {
			{write: true, va: hmBase + pg, n: 2 * pg},
			// The read-only window refuses the first byte and reads fine.
			{write: true, va: hmRO + pg + 5, n: 16, fails: "core: WriteMem at 0x801005: fatal fault"},
			{va: hmRO + pg - 8, n: 2*pg + 16},
			// Both directions run off the end of the mapping.
			{write: true, va: hmBase + hmPages*pg - 4, n: 8, fails: "core: WriteMem at 0x408000: fatal fault"},
			{va: hmBase + hmPages*pg - 4, n: 8, fails: "core: ReadMem at 0x408000: fatal fault"},
		},
		// Zeros into a page still on the zero page leave it there; the
		// faults, dirty log and bytes must still be the byte loop's.
		"zeros": {
			{write: true, zeros: true, va: hmBase + pg - 3, n: 3*pg + 5},
			{prep: arm},
			{write: true, zeros: true, va: hmBase, n: 2 * pg},
			{write: true, va: hmBase + 5*pg + 7, n: pg + 10},
			{write: true, zeros: true, va: hmBase + 5*pg, n: pg},
			{prep: shareInto(6)},
			{write: true, zeros: true, va: hmBase + 6*pg + 8, n: 4, fails: "core: WriteMem at 0x406008: cow fault"},
			{va: hmBase, n: hmPages * pg},
		},
		"mmio-bearing": {
			{write: true, va: hmBase + 10, n: pg},
			{prep: mapDevice},
			{write: true, va: hmBase + pg - 3, n: 2*pg + 9},
			{va: hmBase, n: 4 * pg},
			// Ranges that run into the window move their ordinary part and
			// stop at its first byte; ranges inside it fail at once. Device
			// registers take words from guests, never bytes from the loader.
			{write: true, va: hmMMIO - 6, n: 16, fails: "core: WriteMem at 0x408000: fatal fault"},
			{va: hmMMIO - 6, n: 16, fails: "core: ReadMem at 0x408000: fatal fault"},
			{write: true, va: hmMMIO - pg - 1, n: 2 * pg, fails: "core: WriteMem at 0x408000: fatal fault"},
			{write: true, va: hmMMIO + 8, n: 4, fails: "core: WriteMem at 0x408008: fatal fault"},
			{va: hmMMIO + pg - 2, n: 4, fails: "core: ReadMem at 0x408ffe: fatal fault"},
			{va: hmBase + 6*pg, n: 2 * pg},
		},
	}
	for name, ops := range scenarios {
		for _, noFast := range []bool{false, true} {
			name, ops, noFast := name, ops, noFast
			t.Run(fmt.Sprintf("%s/nofast=%v", name, noFast), func(t *testing.T) {
				got, want := newHostMemWorld(t, noFast), newHostMemWorld(t, noFast)
				for i, op := range ops {
					var gb, wb []byte
					var ge, we error
					switch {
					case op.prep != nil:
						op.prep(t, got)
						op.prep(t, want)
					case op.zeros:
						ge = got.k.Populate(got.s, op.va, uint32(op.n))
						we = refWriteMem(want.s, op.va, make([]byte, op.n))
					case op.write:
						data := pattern(op.n, byte(i))
						ge = got.k.WriteMem(got.s, op.va, data)
						we = refWriteMem(want.s, op.va, data)
					default:
						gb, ge = got.k.ReadMem(got.s, op.va, op.n)
						wb, we = refReadMem(want.s, op.va, op.n)
					}
					if want := op.fails; errText(ge) != want || errText(we) != want {
						t.Fatalf("step %d: error %q, byte loop %q, want %q", i, errText(ge), errText(we), want)
					}
					if !bytes.Equal(gb, wb) {
						t.Fatalf("step %d: ReadMem bytes differ from the byte loop", i)
					}
					if g, w := got.s.AS.Faults, want.s.AS.Faults; g != w {
						t.Fatalf("step %d: AS.Faults=%d, byte loop %d", i, g, w)
					}
					for p := uint32(0); p < hmPages; p++ {
						gf, wf := got.r.FrameAt(p*pg), want.r.FrameAt(p*pg)
						if (gf == nil) != (wf == nil) || (gf != nil && !bytes.Equal(gf.Data, wf.Data)) {
							t.Fatalf("step %d: page %d differs from the byte loop", i, p)
						}
						if g, w := got.r.IsDirty(p*pg), want.r.IsDirty(p*pg); g != w {
							t.Fatalf("step %d: page %d dirty=%v, byte loop %v", i, p, g, w)
						}
					}
				}
			})
		}
	}
}
