// The software TLB's hit path. internal/mmu owns the slots — it fills them
// from page-table hits and clears them whenever a PTE is dropped or
// rewritten — and this file is the one place that reads them on an access.
// There are two readers: the mmu's own cpu.Memory methods, which try the
// TLB before translating, and the fused-block executors (threaded.go),
// which try it before making the cpu.Memory interface call at all. Every
// method here is small enough to inline into both.
//
// A hit proves the access is to ordinary memory with the permission it
// needs: a slot is only derived from a mapping, and mappings and device
// register windows are disjoint. A miss says nothing — the caller falls
// back to cpu.Memory, which translates, faults, reaches device registers,
// logs dirty pages and refills the slot.
package cpu

import (
	"encoding/binary"

	"repro/internal/mem"
)

// Slot permission bits. internal/mmu's Perm bits have the same values, so
// the mmu stores its protection in a slot unconverted.
const (
	TLBRead = 1 << iota
	TLBWrite
	TLBExec
)

// TLBEntry is one direct-mapped slot: page VPN, backed by Frame, granting
// Perm. A slot with Perm == 0 is invalid and never hits.
type TLBEntry struct {
	VPN   uint32
	Perm  uint8
	Frame *mem.Frame
}

// TLB is a view of one address space's slots: page vpn lives in
// Slots[vpn&Mask]. len(Slots) is a power of two and Mask is len(Slots)-1.
// A copied TLB shares the slot array, so it sees the owner's refills and
// flushes as they happen.
type TLB struct {
	Slots []TLBEntry
	Mask  uint32
}

// Page returns the frame contents of va's page when its slot grants perm,
// or nil on a miss.
func (t *TLB) Page(va uint32, perm uint8) []byte {
	vpn := va >> mem.PageShift
	e := &t.Slots[vpn&t.Mask]
	if e.VPN != vpn || e.Perm&perm == 0 {
		return nil
	}
	return e.Frame.Data
}

// Load32 reads the aligned word at va on a hit.
func (t *TLB) Load32(va uint32) (uint32, bool) {
	vpn := va >> mem.PageShift
	e := &t.Slots[vpn&t.Mask]
	if e.VPN != vpn || e.Perm&TLBRead == 0 || va&3 != 0 {
		return 0, false
	}
	return binary.LittleEndian.Uint32(e.Frame.Data[va&mem.PageMask:]), true
}

// Fetch32 reads the aligned instruction word at va on a hit.
func (t *TLB) Fetch32(va uint32) (uint32, bool) {
	vpn := va >> mem.PageShift
	e := &t.Slots[vpn&t.Mask]
	if e.VPN != vpn || e.Perm&TLBExec == 0 || va&3 != 0 {
		return 0, false
	}
	return binary.LittleEndian.Uint32(e.Frame.Data[va&mem.PageMask:]), true
}

// Load8 reads the byte at va on a hit.
func (t *TLB) Load8(va uint32) (byte, bool) {
	vpn := va >> mem.PageShift
	e := &t.Slots[vpn&t.Mask]
	if e.VPN != vpn || e.Perm&TLBRead == 0 {
		return 0, false
	}
	return e.Frame.Data[va&mem.PageMask], true
}

// Store32 writes the aligned word at va on a hit, bumping the frame's store
// generation so decoded copies of it go stale.
func (t *TLB) Store32(va, v uint32) bool {
	vpn := va >> mem.PageShift
	e := &t.Slots[vpn&t.Mask]
	if e.VPN != vpn || e.Perm&TLBWrite == 0 || va&3 != 0 {
		return false
	}
	e.Frame.Gen++
	binary.LittleEndian.PutUint32(e.Frame.Data[va&mem.PageMask:], v)
	return true
}

// Store8 writes the byte at va on a hit, bumping the store generation.
func (t *TLB) Store8(va uint32, v byte) bool {
	vpn := va >> mem.PageShift
	e := &t.Slots[vpn&t.Mask]
	if e.VPN != vpn || e.Perm&TLBWrite == 0 {
		return false
	}
	e.Frame.Gen++
	e.Frame.Data[va&mem.PageMask] = v
	return true
}
