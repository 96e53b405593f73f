package mmu

import (
	"fmt"

	"repro/internal/mem"
)

// Device register windows.
//
// The invariant everything here rests on: mappings and windows are
// disjoint (MapIO refuses a window over a mapping, Map refuses a mapping
// over a window), and a PTE or TLB entry is only ever derived from a
// mapping, so a page that has a translation is never a device page. The
// host fast paths therefore need no per-space opt-out: a TLB or PTE probe
// hit alone proves the access is to ordinary memory, and only a TLB miss
// in Load32/Store32 asks ioAt whether the word is a device register. A
// driver space runs decoded and fused code, and copies through page
// windows, like any other space; exactly its register pages stay on the
// word path, each access reaching the IOHandler in program order.

// IOHandler receives programmed-I/O accesses to a device register window.
// Offsets are window-relative and word-aligned. Device registers are
// always "present" — they never page-fault — but are not fetchable.
type IOHandler interface {
	IORead32(off uint32) uint32
	IOWrite32(off uint32, v uint32)
}

type ioWindow struct {
	base, size uint32
	h          IOHandler
}

// MapIO installs a device register window at [base, base+size). The
// window must be page-aligned and may not overlap mappings or other
// windows. Byte and instruction-fetch accesses to it fault (devices are
// word-addressed, as on most memory-mapped buses).
func (as *AddrSpace) MapIO(base, size uint32, h IOHandler) error {
	if base%mem.PageSize != 0 || size%mem.PageSize != 0 || size == 0 {
		return fmt.Errorf("mmu: unaligned IO window base=%#x size=%#x", base, size)
	}
	if h == nil {
		return fmt.Errorf("mmu: nil IO handler")
	}
	if w := as.ioOverlapping(base, size); w != nil {
		return fmt.Errorf("mmu: IO window overlaps [%#x,+%#x)", w.base, w.size)
	}
	for _, m := range as.mappings {
		if base < m.Base+m.Size && m.Base < base+size {
			return fmt.Errorf("mmu: IO window overlaps mapping [%#x,+%#x)", m.Base, m.Size)
		}
	}
	as.io = append(as.io, ioWindow{base: base, size: size, h: h})
	return nil
}

// ioOverlapping returns a window overlapping [base, base+size), if any.
func (as *AddrSpace) ioOverlapping(base, size uint32) *ioWindow {
	for i := range as.io {
		if w := &as.io[i]; base < w.base+w.size && w.base < base+size {
			return w
		}
	}
	return nil
}

// ioAt returns the window covering va, if any.
func (as *AddrSpace) ioAt(va uint32) *ioWindow {
	for i := range as.io {
		w := &as.io[i]
		if va >= w.base && va-w.base < w.size {
			return w
		}
	}
	return nil
}

// IOWindows returns the number of installed device windows.
func (as *AddrSpace) IOWindows() int { return len(as.io) }

// HasMMIO reports whether any device-register windows are installed.
func (as *AddrSpace) HasMMIO() bool { return len(as.io) > 0 }

// MMIOAt reports whether va falls inside a device register window. The
// zero-copy IPC path uses it to demote exactly the pages that really are
// device registers (stores there must reach the IOHandler word by word)
// instead of refusing every transfer touching a space that has any
// window mapped — a driver space's DMA buffers are ordinary memory and
// share fine.
func (as *AddrSpace) MMIOAt(va uint32) bool { return as.ioAt(va) != nil }
