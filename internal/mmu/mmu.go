// Package mmu implements the simulated memory-management hardware and the
// Fluke memory-mapping hierarchy: address spaces translate virtual
// addresses through per-page PTEs; Regions export memory; Mappings import
// (part of) a Region into an address space.
//
// The PTE table is a pure cache of the Mapping/Region state, which gives
// the simulation the two fault flavours Table 3 of the paper measures:
//
//   - a soft page fault is one "for which the kernel can derive a page
//     table entry based on an entry higher in the memory mapping
//     hierarchy": the VA is covered by a Mapping whose source Region page
//     is present (or demand-zero), so the kernel installs a PTE and
//     restarts;
//   - a hard page fault needs an RPC to a user-level memory manager: the
//     Region page is absent and the Region names a pager.
package mmu

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// Perm is a page-protection bit set.
type Perm uint8

// Protection bits. They are the cpu.TLB slot bits, so a translation's
// permission goes into a TLB slot unconverted.
const (
	PermRead  Perm = cpu.TLBRead
	PermWrite Perm = cpu.TLBWrite
	PermExec  Perm = cpu.TLBExec
)

// PermRW and PermRWX are common combinations.
const (
	PermRW  = PermRead | PermWrite
	PermRWX = PermRead | PermWrite | PermExec
)

func (p Perm) String() string {
	s := [3]byte{'-', '-', '-'}
	if p&PermRead != 0 {
		s[0] = 'r'
	}
	if p&PermWrite != 0 {
		s[1] = 'w'
	}
	if p&PermExec != 0 {
		s[2] = 'x'
	}
	return string(s[:])
}

// accPerm maps an access class to the protection bit it needs; indexing a
// table is cheaper than a switch on the translation fast path.
var accPerm = [3]Perm{cpu.Read: PermRead, cpu.Write: PermWrite, cpu.Exec: PermExec}

func needs(acc cpu.Access) Perm { return accPerm[acc] }

// Region is an exportable range of memory (Fluke's Region object state).
// Pages are backed lazily: a page is either present (has a frame), demand-
// zero (the kernel may materialize a zero frame on first touch — a soft
// fault), or pager-backed (a user-mode memory manager must provide it — a
// hard fault).
type Region struct {
	Size       uint32 // bytes, page multiple
	DemandZero bool   // absent pages may be materialized as zero frames
	Pager      any    // opaque pager identity (a kernel Port); nil if none

	frames []*mem.Frame

	// watchers are the address spaces currently importing this region, one
	// entry per installed mapping. PTEs (and TLB entries) are pure caches
	// of the Mapping/Region state, so Populate and Evict flush the derived
	// translations of the affected page through this list — no space can
	// keep a translation to a replaced frame.
	watchers []*AddrSpace

	// Dirty-page tracking (incremental checkpointing). While trackDirty is
	// set, the first store to each page — and every operation that changes
	// a page's backing-frame identity or sharing structure — sets the
	// page's bit in dirtyBits and appends its page index to dirtyLog. The
	// log holds each page once, in first-mark order, so re-arming clears
	// only the bits it names: O(dirty), not O(region). The mechanism is
	// the pte track bit (see the pte type): it never raises a fault, never
	// charges a cycle, and never counts in Faults, so tracking is
	// invisible to virtual time exactly like the TLB and decode caches.
	//
	// trackEpoch counts StartDirtyTracking calls. A snapshot records the
	// epoch it armed; a later delta against it trusts the log only while
	// the region still reads that epoch — any other re-arm in between has
	// thrown marks away.
	trackDirty bool
	trackEpoch uint64
	dirtyBits  []uint64
	dirtyLog   []uint32
}

// NewRegion creates a region of size bytes (rounded up to pages).
func NewRegion(size uint32, demandZero bool) *Region {
	size = mem.PageRound(size)
	return &Region{
		Size:       size,
		DemandZero: demandZero,
		frames:     make([]*mem.Frame, size/mem.PageSize),
	}
}

// Pages returns the number of pages in the region.
func (r *Region) Pages() int { return len(r.frames) }

// Frames returns the region's page table: one entry per page, nil where
// the page is absent. It is the live table, not a copy — snapshot code
// walks it in place; callers must not modify it.
func (r *Region) Frames() []*mem.Frame { return r.frames }

// FrameAt returns the frame backing the page containing offset off, or nil.
func (r *Region) FrameAt(off uint32) *mem.Frame {
	if off >= r.Size {
		return nil
	}
	return r.frames[off/mem.PageSize]
}

// Populate installs a frame for the page containing offset off, replacing
// any previous frame (which is returned so the caller can free it).
// Derived translations of the page are flushed in every importing space.
func (r *Region) Populate(off uint32, f *mem.Frame) *mem.Frame {
	if off >= r.Size {
		panic(fmt.Sprintf("mmu: Populate offset %#x beyond region size %#x", off, r.Size))
	}
	old := r.frames[off/mem.PageSize]
	r.frames[off/mem.PageSize] = f
	if old != f {
		r.flushDerived(mem.PageTrunc(off))
		r.MarkDirty(off) // frame identity changed under the tracker
	}
	return old
}

// Evict removes and returns the frame backing the page at off, if any.
// Subsequent touches fault again (soft if demand-zero, hard if pager-backed).
// Derived translations of the page are flushed in every importing space.
func (r *Region) Evict(off uint32) *mem.Frame {
	if off >= r.Size {
		return nil
	}
	f := r.frames[off/mem.PageSize]
	r.frames[off/mem.PageSize] = nil
	if f != nil {
		r.flushDerived(mem.PageTrunc(off))
	}
	return f
}

// Repoint replaces the frame backing the page at off, like Populate, but
// instead of flushing watchers' derived translations it re-derives each
// installed PTE in place: the entry is updated to the new frame with
// exactly the permission a refault would install (the mapping's, minus
// write while the frame is copy-on-write). Pages never translated stay
// lazy. Devices use this when replacing a frame they are about to DMA
// into — breaking a COW share from outside the MMU's store path — so the
// importing spaces keep their translations hot instead of each paying a
// soft fault on the next touch.
func (r *Region) Repoint(off uint32, f *mem.Frame) *mem.Frame {
	if off >= r.Size {
		panic(fmt.Sprintf("mmu: Repoint offset %#x beyond region size %#x", off, r.Size))
	}
	old := r.frames[off/mem.PageSize]
	r.frames[off/mem.PageSize] = f
	if old == f {
		return old
	}
	r.MarkDirty(off) // frame identity changed under the tracker
	po := mem.PageTrunc(off)
	for _, as := range r.watchers {
		for _, m := range as.mappings {
			if m.Region != r || po < m.RegionOff || po-m.RegionOff >= m.Size {
				continue
			}
			vpn := mem.VPN(m.Base + (po - m.RegionOff))
			if _, ok := as.pt[vpn]; !ok {
				continue
			}
			perm := m.Perm
			if f.Cow {
				perm &^= PermWrite
			}
			as.flushSlot(vpn)
			as.pt[vpn] = pte{frame: f, perm: perm}
			if e := &as.icache[vpn%icSize]; e.page != nil && e.vpn == vpn {
				*e = icEntry{}
			}
		}
	}
	return old
}

// flushDerived drops cached translations of the region page at off from
// every space importing it.
func (r *Region) flushDerived(off uint32) {
	for _, as := range r.watchers {
		for _, m := range as.mappings {
			if m.Region == r && off >= m.RegionOff && off-m.RegionOff < m.Size {
				as.FlushPage(m.Base + (off - m.RegionOff))
			}
		}
	}
}

func (r *Region) addWatcher(as *AddrSpace) {
	r.watchers = append(r.watchers, as)
}

func (r *Region) dropWatcher(as *AddrSpace) {
	for i, w := range r.watchers {
		if w == as {
			r.watchers = append(r.watchers[:i], r.watchers[i+1:]...)
			return
		}
	}
}

// PresentPages counts populated pages.
func (r *Region) PresentPages() int {
	n := 0
	for _, f := range r.frames {
		if f != nil {
			n++
		}
	}
	return n
}

// StartDirtyTracking begins (or restarts) dirty-page tracking: the dirty
// log is emptied (clearing only the bits it names), the tracking epoch
// advances, and every installed translation of the region is armed with
// the pte track bit, so the next store through it logs its page before
// proceeding. Arming downgrades only TLB slots and sets a bit the
// translation slow path resolves silently — no fault is raised, no cycle
// charged, no Faults counted — so a tracked run is bit-identical in
// virtual time to an untracked one (unlike write-protecting the pages,
// which would be ambiguous with the lazy COW-upgrade soft faults the
// zero-copy path charges for).
//
// Tracking state is per region, not per snapshot consumer: a second
// consumer's re-arm discards the marks the first was relying on. The
// epoch makes that detectable — see TrackEpoch.
func (r *Region) StartDirtyTracking() {
	r.trackDirty = true
	r.trackEpoch++
	if r.dirtyBits == nil {
		r.dirtyBits = make([]uint64, (len(r.frames)+63)/64)
	}
	for _, p := range r.dirtyLog {
		r.dirtyBits[p/64] &^= 1 << (p % 64)
	}
	r.dirtyLog = r.dirtyLog[:0]
	for _, as := range r.watchers {
		for _, m := range as.mappings {
			if m.Region == r {
				as.armTrackRange(m.Base, m.Size)
			}
		}
	}
}

// StopDirtyTracking ends tracking. Stale track bits left in page tables
// resolve silently on the next store (MarkDirty is a no-op once tracking
// is off), so no disarm walk is needed.
func (r *Region) StopDirtyTracking() { r.trackDirty = false }

// DirtyTracking reports whether the region is tracking stores.
func (r *Region) DirtyTracking() bool { return r.trackDirty }

// TrackEpoch identifies the current tracking interval: it changes on
// every StartDirtyTracking. A consumer that armed the tracker and later
// reads a different epoch knows someone else re-armed it in between, and
// that the log no longer covers everything since its own arming.
func (r *Region) TrackEpoch() uint64 { return r.trackEpoch }

// MarkDirty logs the page containing offset off as modified. The
// translation slow path calls it on the first tracked store; operations
// that change a page's frame identity or sharing structure outside the
// store path (Populate, Repoint, COW resolution, device DMA) call it
// directly. No-op when tracking is off or off is out of range.
func (r *Region) MarkDirty(off uint32) {
	if !r.trackDirty || off >= r.Size {
		return
	}
	p := off >> mem.PageShift
	if w, bit := &r.dirtyBits[p/64], uint64(1)<<(p%64); *w&bit == 0 {
		*w |= bit
		r.dirtyLog = append(r.dirtyLog, p)
	}
}

// IsDirty reports whether the page containing off has been logged since
// tracking (re)started.
func (r *Region) IsDirty(off uint32) bool {
	if off >= r.Size || r.dirtyBits == nil {
		return false
	}
	p := off >> mem.PageShift
	return r.dirtyBits[p/64]&(1<<(p%64)) != 0
}

// DirtyCount returns the number of logged pages.
func (r *Region) DirtyCount() int { return len(r.dirtyLog) }

// Mapping imports [RegionOff, RegionOff+Size) of Region at [Base,
// Base+Size) in a destination address space (Fluke's Mapping object state).
type Mapping struct {
	Region    *Region
	RegionOff uint32
	Base      uint32
	Size      uint32
	Perm      Perm
}

// Contains reports whether the mapping covers va.
func (m *Mapping) Contains(va uint32) bool {
	return va >= m.Base && va-m.Base < m.Size
}

// regionOffFor translates a covered va to its region offset.
func (m *Mapping) regionOffFor(va uint32) uint32 {
	return m.RegionOff + (va - m.Base)
}

type pte struct {
	frame *mem.Frame
	perm  Perm
	// track arms dirty-page logging: the entry keeps its write permission,
	// but the TLB is only ever filled without the write bit while track is
	// set, so the first store falls through to translate, which logs the
	// page into its region's dirty set, clears the bit, and completes the
	// access — silently, with no fault and no cycles. probe refuses write
	// access while track is set so DirectWindow copies cannot bypass the
	// log (they fall back to the per-word path, which is bit-identical).
	track bool
}

// The software TLB (cpu.TLB): a small direct-mapped cache consulted before
// the pt map on every access, exactly as hardware TLBs cache hardware page
// tables. Entries are a strict subset of pt (filled only from pt hits),
// and every path that drops or rewrites a PTE clears the matching TLB slot,
// so the TLB can never hold a translation the page table lacks. A zeroed
// slot has Perm == 0 and therefore never hits. The hit path lives in
// internal/cpu and has two readers: this package's cpu.Memory methods and
// the interpreter's fused blocks, which reach the slots through TLB().
//
// The capacity is per-AddrSpace (DefaultTLBSize unless NewAddrSpaceTLB
// says otherwise); shrinking it only changes wall-clock cost, never
// virtual time, so tests can run tiny TLBs to stress eviction and
// invalidation paths.

// DefaultTLBSize is the TLB capacity used by NewAddrSpace.
const DefaultTLBSize = 256

// icSize is the number of direct-mapped decoded-instruction page slots
// per address space (see DecodedPageFor).
const icSize = 64

type icEntry struct {
	vpn   uint32
	frame *mem.Frame
	page  *cpu.DecodedPage
	// thrash counts consecutive stale resets of this same page that
	// discarded fused blocks. A page that keeps dirtying itself (a
	// self-modifying loop, a DMA target) pays block-build cost on every
	// reset for blocks that never get to amortize it; past
	// blockThrashLimit the entry stops building blocks and runs from
	// decode slots alone. Repointing the entry at a different page
	// clears the count.
	thrash uint8
}

// blockThrashLimit is the number of block-discarding stale resets of one
// page after which fused-block building is disabled for that page.
const blockThrashLimit = 8

// FaultClass classifies a page fault (paper Table 3 terminology).
type FaultClass uint8

const (
	// FaultFatal: no mapping covers the address, or protection denies
	// the access. The thread gets an exception.
	FaultFatal FaultClass = iota
	// FaultSoft: the kernel can derive the PTE from the mapping
	// hierarchy without leaving the kernel.
	FaultSoft
	// FaultHard: a user-mode pager must provide the page (exception IPC).
	FaultHard
	// FaultCOW: a store hit a copy-on-write frame shared by zero-copy
	// IPC. A soft flavour — the kernel resolves it without leaving the
	// kernel, by copying the page (breaking the share) or, when the
	// sharing has already dissolved, by restoring write permission.
	FaultCOW
)

func (c FaultClass) String() string {
	switch c {
	case FaultFatal:
		return "fatal"
	case FaultSoft:
		return "soft"
	case FaultHard:
		return "hard"
	case FaultCOW:
		return "cow"
	}
	return "fault?"
}

// AddrSpace is the translation state of one Fluke Space. It implements
// cpu.Memory. All 32-bit accesses must be 4-byte aligned (misalignment
// faults, as on a trap-on-misalign machine).
type AddrSpace struct {
	alloc    *mem.Allocator
	pt       map[uint32]pte // vpn -> pte
	mappings []*Mapping
	io       []ioWindow // device register windows (see mmio.go)

	// tlb caches recent pt entries (see cpu.TLB); icache caches decoded
	// instructions per executable page. Both are invisible to virtual
	// time: they change only wall-clock cost, never cycles or Stats.
	tlb      cpu.TLB
	icache   [icSize]icEntry
	noFast   bool // caches disabled (equivalence testing)
	noBlocks bool // threaded-code tier disabled (Config.DisableThreadedCode)

	// exec counts decode-cache and fused-block events (see
	// cpu.ExecStats); host-side diagnostics, invisible to virtual time.
	exec cpu.ExecStats

	// Faults counts translation faults taken through this space
	// (diagnostics and tests).
	Faults uint64
}

// NewAddrSpace creates an empty address space drawing demand-zero frames
// from alloc, with the default TLB capacity.
func NewAddrSpace(alloc *mem.Allocator) *AddrSpace {
	return NewAddrSpaceTLB(alloc, DefaultTLBSize)
}

// NewAddrSpaceTLB is NewAddrSpace with an explicit TLB capacity. size is
// rounded up to a power of two (the TLB is direct-mapped on a vpn mask);
// size <= 0 selects DefaultTLBSize.
func NewAddrSpaceTLB(alloc *mem.Allocator, size int) *AddrSpace {
	if size <= 0 {
		size = DefaultTLBSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &AddrSpace{
		alloc: alloc,
		pt:    make(map[uint32]pte),
		tlb:   cpu.TLB{Slots: make([]cpu.TLBEntry, n), Mask: uint32(n - 1)},
	}
}

// TLBSize returns the TLB capacity.
func (as *AddrSpace) TLBSize() int { return len(as.tlb.Slots) }

// TLB implements cpu.DecodedSource: the interpreter's view of this space's
// slots. It stays valid for the space's lifetime; with fast paths disabled
// every slot is empty, so every lookup through it misses.
func (as *AddrSpace) TLB() cpu.TLB { return as.tlb }

// Allocator exposes the backing allocator (the pager uses it).
func (as *AddrSpace) Allocator() *mem.Allocator { return as.alloc }

// Map installs a mapping. Overlapping an existing mapping or a device
// register window is an error: with MapIO's mirror-image check this keeps
// mappings and windows disjoint, so a page that has a translation is never
// a device page (see mmio.go). Base, RegionOff and Size must be
// page-aligned and the mapped window must lie within the region.
func (as *AddrSpace) Map(m *Mapping) error {
	if m.Base%mem.PageSize != 0 || m.Size%mem.PageSize != 0 || m.RegionOff%mem.PageSize != 0 {
		return fmt.Errorf("mmu: unaligned mapping base=%#x off=%#x size=%#x", m.Base, m.RegionOff, m.Size)
	}
	if m.Size == 0 {
		return fmt.Errorf("mmu: empty mapping")
	}
	if m.Region == nil || m.RegionOff+m.Size > m.Region.Size || m.RegionOff+m.Size < m.RegionOff {
		return fmt.Errorf("mmu: mapping window [%#x,+%#x) outside region", m.RegionOff, m.Size)
	}
	if m.Base+m.Size < m.Base && m.Base+m.Size != 0 {
		return fmt.Errorf("mmu: mapping wraps address space")
	}
	for _, ex := range as.mappings {
		if m.Base < ex.Base+ex.Size && ex.Base < m.Base+m.Size {
			return fmt.Errorf("mmu: mapping [%#x,+%#x) overlaps [%#x,+%#x)", m.Base, m.Size, ex.Base, ex.Size)
		}
	}
	if w := as.ioOverlapping(m.Base, m.Size); w != nil {
		return fmt.Errorf("mmu: mapping [%#x,+%#x) overlaps IO window [%#x,+%#x)", m.Base, m.Size, w.base, w.size)
	}
	as.mappings = append(as.mappings, m)
	m.Region.addWatcher(as)
	return nil
}

// Unmap removes the given mapping and flushes its PTEs. It reports whether
// the mapping was installed.
func (as *AddrSpace) Unmap(m *Mapping) bool {
	for i, ex := range as.mappings {
		if ex == m {
			as.mappings = append(as.mappings[:i], as.mappings[i+1:]...)
			m.Region.dropWatcher(as)
			as.FlushRange(m.Base, m.Size)
			return true
		}
	}
	return false
}

// MappingAt returns the mapping covering va, or nil.
func (as *AddrSpace) MappingAt(va uint32) *Mapping {
	for _, m := range as.mappings {
		if m.Contains(va) {
			return m
		}
	}
	return nil
}

// Mappings returns the installed mappings (do not mutate).
func (as *AddrSpace) Mappings() []*Mapping { return as.mappings }

// SetProtection changes a mapping's protection and flushes its PTEs so the
// new protection takes effect on the next access.
func (as *AddrSpace) SetProtection(m *Mapping, p Perm) {
	m.Perm = p
	as.FlushRange(m.Base, m.Size)
}

// FlushRange drops cached PTEs (and TLB/icache entries) covering
// [base, base+size). When the range spans more pages than the page table
// holds, it iterates the installed PTEs instead of every vpn in the range,
// so flushing a huge sparsely-mapped window stays cheap.
func (as *AddrSpace) FlushRange(base, size uint32) {
	if size == 0 {
		return
	}
	first := mem.VPN(base)
	last := mem.VPN(base + size - 1)
	pages := uint64(last-first) + 1
	if pages > uint64(len(as.pt)) {
		for vpn := range as.pt {
			if vpn >= first && vpn <= last {
				delete(as.pt, vpn)
			}
		}
	} else {
		for vpn := first; vpn <= last; vpn++ {
			delete(as.pt, vpn)
			if vpn == last { // guard wrap-around
				break
			}
		}
	}
	if pages >= uint64(len(as.tlb.Slots)) {
		clear(as.tlb.Slots)
	} else {
		for vpn := first; vpn <= last; vpn++ {
			as.flushSlot(vpn)
			if vpn == last { // guard wrap-around
				break
			}
		}
	}
	if pages >= icSize {
		clear(as.icache[:])
	} else {
		for vpn := first; vpn <= last; vpn++ {
			if e := &as.icache[vpn%icSize]; e.page != nil && e.vpn == vpn {
				*e = icEntry{}
			}
			if vpn == last { // guard wrap-around
				break
			}
		}
	}
}

// flushSlot invalidates the TLB slot for vpn if it holds that vpn.
func (as *AddrSpace) flushSlot(vpn uint32) {
	if e := &as.tlb.Slots[vpn&as.tlb.Mask]; e.Perm != 0 && e.VPN == vpn {
		*e = cpu.TLBEntry{}
	}
}

// FlushPage drops the cached PTE (and TLB/icache entries) for the page
// containing va.
func (as *AddrSpace) FlushPage(va uint32) {
	vpn := mem.VPN(va)
	delete(as.pt, vpn)
	as.flushSlot(vpn)
	if e := &as.icache[vpn%icSize]; e.page != nil && e.vpn == vpn {
		*e = icEntry{}
	}
}

// SetThreadedCode enables or disables the fused-block (threaded-code)
// interpreter tier for this space. Off, StepN still uses the decode
// cache but dispatches one instruction at a time. Cached pages are
// flushed so existing DecodedPages pick up the new setting.
func (as *AddrSpace) SetThreadedCode(on bool) {
	as.noBlocks = !on
	clear(as.icache[:])
}

// ExecStats returns this space's decode-cache and fused-block counters.
func (as *AddrSpace) ExecStats() *cpu.ExecStats { return &as.exec }

// SetFastPaths enables or disables the TLB, decoded-instruction cache and
// direct-window copy paths. Disabling (equivalence testing) also drops any
// cached state; results must be bit-identical either way.
func (as *AddrSpace) SetFastPaths(on bool) {
	as.noFast = !on
	clear(as.tlb.Slots)
	clear(as.icache[:])
}

// Present reports whether the page containing va has a PTE granting acc.
// The TLB is a strict subset of pt, so a hit there answers without the map
// lookup; like probe it counts no Faults and changes no cache state, and
// with fast paths disabled the TLB is empty and every call reads pt.
func (as *AddrSpace) Present(va uint32, acc cpu.Access) bool {
	if as.tlb.Page(va, uint8(needs(acc))) != nil {
		return true
	}
	e, ok := as.pt[mem.VPN(va)]
	return ok && e.perm&needs(acc) != 0
}

// PTEs returns the number of installed PTEs.
func (as *AddrSpace) PTEs() int { return len(as.pt) }

// Classify decides what kind of fault an access to va is, returning the
// covering mapping for soft/hard/COW faults.
func (as *AddrSpace) Classify(va uint32, acc cpu.Access) (FaultClass, *Mapping) {
	m := as.MappingAt(va)
	if m == nil || m.Perm&needs(acc) == 0 {
		return FaultFatal, nil
	}
	off := m.regionOffFor(va)
	if f := m.Region.FrameAt(off); f != nil {
		// A store to a copy-on-write frame: the mapping grants write but
		// cached translations were write-protected when the frame was
		// shared, so the access trapped here for the share to be broken.
		if acc == cpu.Write && f.Cow {
			return FaultCOW, m
		}
		return FaultSoft, m
	}
	if m.Region.DemandZero {
		return FaultSoft, m
	}
	if m.Region.Pager != nil {
		return FaultHard, m
	}
	return FaultFatal, nil
}

// ResolveSoft installs the PTE for a soft fault at va, materializing a
// demand-zero frame in the region if needed. Classify must have returned
// FaultSoft for the same access.
func (as *AddrSpace) ResolveSoft(va uint32, acc cpu.Access) error {
	m := as.MappingAt(va)
	if m == nil {
		return fmt.Errorf("mmu: ResolveSoft(%#x): no mapping", va)
	}
	off := mem.PageTrunc(m.regionOffFor(va))
	f := m.Region.FrameAt(off)
	if f == nil {
		if !m.Region.DemandZero {
			return fmt.Errorf("mmu: ResolveSoft(%#x): page absent and not demand-zero", va)
		}
		var err error
		f, err = as.alloc.Alloc()
		if err != nil {
			return err
		}
		m.Region.Populate(off, f)
	}
	perm := m.Perm
	if f.Cow {
		// Copy-on-write frames never get cached write permission: the
		// next store must trap so the share can be broken (ResolveCOW).
		perm &^= PermWrite
	}
	vpn := mem.VPN(va)
	as.flushSlot(vpn) // pt[vpn] changes below; keep TLB ⊆ pt
	// A PTE born while the region is tracking is born armed, so a store
	// through it logs the page like any pre-arming translation would.
	as.pt[vpn] = pte{frame: f, perm: perm, track: m.Region.trackDirty}
	return nil
}

// ResolveCOW resolves a copy-on-write fault for a store to va. If the
// backing frame is still shared, the share is broken: the page is copied
// into a fresh frame, the region slot is repointed (flushing every derived
// translation through the watcher list), and this holder's reference to
// the shared frame is dropped. If the sharing has already dissolved (this
// region holds the last reference), write permission is simply restored.
// Either way a writable PTE is installed so the restarted store hits.
// Classify must have returned FaultCOW for the same access; copied reports
// whether a page copy happened (the caller charges for it).
func (as *AddrSpace) ResolveCOW(va uint32) (copied bool, err error) {
	m := as.MappingAt(va)
	if m == nil {
		return false, fmt.Errorf("mmu: ResolveCOW(%#x): no mapping", va)
	}
	off := mem.PageTrunc(m.regionOffFor(va))
	f := m.Region.FrameAt(off)
	if f == nil || !f.Cow {
		return false, fmt.Errorf("mmu: ResolveCOW(%#x): page is not copy-on-write", va)
	}
	cur := f
	if f.Shared() {
		nf, aerr := as.alloc.Alloc()
		if aerr != nil {
			return false, aerr
		}
		copy(nf.Data, f.Data)
		nf.Bump()
		m.Region.Populate(off, nf) // flushes derived translations everywhere
		as.alloc.Free(f)           // drop this region's reference
		cur = nf
		copied = true
	} else {
		// Last reference: no copy needed. Clear the marker; other
		// write-protected translations of this frame (other mappings or
		// spaces) upgrade lazily through ordinary soft faults. The frame
		// keeps its identity but its sharing structure changed, so the
		// tracker must recapture the page (a delta restored from a parent
		// image would otherwise resurrect the stale Cow marker).
		f.Cow = false
		m.Region.MarkDirty(off)
	}
	vpn := mem.VPN(va)
	as.flushSlot(vpn) // pt[vpn] changes below; keep TLB ⊆ pt
	as.pt[vpn] = pte{frame: cur, perm: m.Perm}
	return copied, nil
}

// ShareCOW implements the zero-copy IPC transfer step: the frame backing
// the page at srcVA in src is installed copy-on-write into the region slot
// backing dstVA in dst, instead of copying the page's words. Every cached
// translation of the source page is write-protected (read and exec hits
// stay intact) and the destination page's translation is re-derived
// read-only, so the next store through either side raises FaultCOW and
// breaks the share.
//
// Both addresses must be page-aligned, covered by a readable source /
// writable destination mapping, neither page a device register window,
// and the source page must be present. The window check is per page, not
// per space: a driver space that has registers mapped elsewhere — the
// network server replying straight out of its NIC DMA region — shares
// its ordinary pages fine. ShareCOW reports false without changing
// anything when a precondition fails — the caller falls back to the
// copying path, which raises exactly the faults the copy would. Sharing
// a page with itself, or re-sending a page that is already shared into
// the same slot, succeeds as a no-op.
func ShareCOW(src *AddrSpace, srcVA uint32, dst *AddrSpace, dstVA uint32) bool {
	if srcVA%mem.PageSize != 0 || dstVA%mem.PageSize != 0 {
		return false
	}
	if src.ioAt(srcVA) != nil || dst.ioAt(dstVA) != nil {
		return false
	}
	sm := src.MappingAt(srcVA)
	dm := dst.MappingAt(dstVA)
	if sm == nil || dm == nil || sm.Perm&PermRead == 0 || dm.Perm&PermWrite == 0 {
		return false
	}
	soff := sm.regionOffFor(srcVA) // page-aligned: mapping bases/offsets are
	doff := dm.regionOffFor(dstVA)
	f := sm.Region.FrameAt(soff)
	if f == nil {
		return false
	}
	if sm.Region == dm.Region && soff == doff {
		return true // sending a page to itself: already identical
	}
	if dm.Region.FrameAt(doff) == f {
		return true // re-send into the same slot: share already in place
	}
	src.alloc.Share(f)
	f.Cow = true
	if old := dm.Region.Populate(doff, f); old != nil {
		src.alloc.Free(old)
	}
	// Existing translations of the source page may still grant write
	// straight into the now-shared frame; downgrade them everywhere.
	sm.Region.writeProtect(soff)
	// The source page's bytes are unchanged but its frame is now Cow with
	// an extra reference — sharing structure a parent image cannot know.
	// (The destination page was marked by Populate above.)
	sm.Region.MarkDirty(soff)
	// Populate dropped the destination page's translations; re-derive the
	// receiver's own (read-only — the frame is Cow) so the receive buffer
	// stays as mapped as the copying path would have left it.
	dvpn := mem.VPN(dstVA)
	dst.flushSlot(dvpn)
	dst.pt[dvpn] = pte{frame: f, perm: dm.Perm &^ PermWrite}
	return true
}

// writeProtect masks write permission out of every cached translation of
// the region page at off in every importing space, leaving read and exec
// hits intact: the next store through any of them faults, and the COW
// logic decides whether to break a share or restore the bit.
func (r *Region) writeProtect(off uint32) {
	for _, as := range r.watchers {
		for _, m := range as.mappings {
			if m.Region == r && off >= m.RegionOff && off-m.RegionOff < m.Size {
				as.writeProtectPage(m.Base + (off - m.RegionOff))
			}
		}
	}
}

// armTrackRange sets the track bit on every installed PTE covering
// [base, base+size) and masks write permission out of the matching TLB
// slots (the PTEs keep theirs — see the pte type). Like FlushRange, it
// iterates whichever of {range pages, installed PTEs} is smaller.
func (as *AddrSpace) armTrackRange(base, size uint32) {
	if size == 0 {
		return
	}
	first := mem.VPN(base)
	last := mem.VPN(base + size - 1)
	arm := func(vpn uint32) {
		if e, ok := as.pt[vpn]; ok && !e.track {
			e.track = true
			as.pt[vpn] = e
			if t := &as.tlb.Slots[vpn&as.tlb.Mask]; t.Perm&cpu.TLBWrite != 0 && t.VPN == vpn {
				t.Perm &^= cpu.TLBWrite
			}
		}
	}
	if uint64(last-first)+1 > uint64(len(as.pt)) {
		for vpn := range as.pt {
			if vpn >= first && vpn <= last {
				arm(vpn)
			}
		}
		return
	}
	for vpn := first; ; vpn++ {
		arm(vpn)
		if vpn == last { // guard wrap-around
			return
		}
	}
}

// writeProtectPage masks write permission out of the cached PTE and TLB
// slot for the page containing va, if installed.
func (as *AddrSpace) writeProtectPage(va uint32) {
	vpn := mem.VPN(va)
	if e, ok := as.pt[vpn]; ok && e.perm&PermWrite != 0 {
		e.perm &^= PermWrite
		as.pt[vpn] = e
	}
	if e := &as.tlb.Slots[vpn&as.tlb.Mask]; e.Perm&cpu.TLBWrite != 0 && e.VPN == vpn {
		e.Perm &^= cpu.TLBWrite
	}
}

// HasPTE reports whether any PTE is installed for the page containing va
// (regardless of permissions).
func (as *AddrSpace) HasPTE(va uint32) bool {
	_, ok := as.pt[mem.VPN(va)]
	return ok
}

// translate returns the frame and in-page offset for va, or a fault. A
// successful translation refills the TLB slot for the page (unless fast
// paths are disabled), exactly as a hardware page-table walk would.
func (as *AddrSpace) translate(va uint32, acc cpu.Access) (*mem.Frame, uint32, *cpu.Fault) {
	vpn := mem.VPN(va)
	e, ok := as.pt[vpn]
	if !ok || e.perm&needs(acc) == 0 {
		as.Faults++
		return nil, 0, &cpu.Fault{VA: va, Access: acc}
	}
	if e.track && acc == cpu.Write {
		// First store since dirty tracking was armed: log the page and
		// disarm, then complete the access. No fault, no Faults count, no
		// cycles — tracking is invisible to virtual time.
		e.track = false
		as.pt[vpn] = e
		if m := as.MappingAt(va); m != nil {
			m.Region.MarkDirty(m.regionOffFor(va))
		}
	}
	if !as.noFast {
		perm := e.perm
		if e.track {
			// Refill without write permission while armed, so a later
			// store cannot hit the TLB and bypass the dirty log.
			perm &^= PermWrite
		}
		as.tlb.Slots[vpn&as.tlb.Mask] = cpu.TLBEntry{VPN: vpn, Perm: uint8(perm), Frame: e.frame}
	}
	return e.frame, va & mem.PageMask, nil
}

// probe is a non-faulting, non-filling translate: it checks the TLB then
// the pt map without counting Faults or changing any cache state. The fast
// paths use it so their translation probes are invisible to diagnostics.
func (as *AddrSpace) probe(va uint32, acc cpu.Access) *mem.Frame {
	vpn := mem.VPN(va)
	if e := &as.tlb.Slots[vpn&as.tlb.Mask]; e.VPN == vpn && e.Perm&uint8(needs(acc)) != 0 {
		return e.Frame
	}
	if e, ok := as.pt[vpn]; ok && e.perm&needs(acc) != 0 && !(e.track && acc == cpu.Write) {
		// An armed entry must not satisfy a write probe: DirectWindow
		// would bypass the dirty log. The per-word fallback resolves the
		// track bit through translate instead.
		return e.frame
	}
	return nil
}

// Load32 implements cpu.Memory. A TLB hit proves the page is ordinary
// memory (translations and device windows are disjoint — see mmio.go), so
// only a miss asks whether va is a device register.
func (as *AddrSpace) Load32(va uint32) (uint32, *cpu.Fault) {
	if v, ok := as.tlb.Load32(va); ok {
		return v, nil
	}
	if va%4 != 0 {
		as.Faults++
		return 0, &cpu.Fault{VA: va, Access: cpu.Read}
	}
	if w := as.ioAt(va); w != nil {
		return w.h.IORead32(va - w.base), nil
	}
	f, off, flt := as.translate(va, cpu.Read)
	if flt != nil {
		return 0, flt
	}
	d := f.Data[off:]
	return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24, nil
}

// Store32 implements cpu.Memory; device stores are found as in Load32.
func (as *AddrSpace) Store32(va uint32, v uint32) *cpu.Fault {
	if as.tlb.Store32(va, v) {
		return nil
	}
	if va%4 != 0 {
		as.Faults++
		return &cpu.Fault{VA: va, Access: cpu.Write}
	}
	if w := as.ioAt(va); w != nil {
		w.h.IOWrite32(va-w.base, v)
		return nil
	}
	f, off, flt := as.translate(va, cpu.Write)
	if flt != nil {
		return flt
	}
	f.Gen++
	d := f.Data[off:]
	d[0], d[1], d[2], d[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return nil
}

// Load8 implements cpu.Memory.
func (as *AddrSpace) Load8(va uint32) (byte, *cpu.Fault) {
	if v, ok := as.tlb.Load8(va); ok {
		return v, nil
	}
	f, off, flt := as.translate(va, cpu.Read)
	if flt != nil {
		return 0, flt
	}
	return f.Data[off], nil
}

// Store8 implements cpu.Memory.
func (as *AddrSpace) Store8(va uint32, v byte) *cpu.Fault {
	if as.tlb.Store8(va, v) {
		return nil
	}
	f, off, flt := as.translate(va, cpu.Write)
	if flt != nil {
		return flt
	}
	f.Gen++
	f.Data[off] = v
	return nil
}

// Fetch32 implements cpu.Memory (instruction fetch).
func (as *AddrSpace) Fetch32(va uint32) (uint32, *cpu.Fault) {
	if v, ok := as.tlb.Fetch32(va); ok {
		return v, nil
	}
	if va%4 != 0 {
		as.Faults++
		return 0, &cpu.Fault{VA: va, Access: cpu.Exec}
	}
	f, off, flt := as.translate(va, cpu.Exec)
	if flt != nil {
		return 0, flt
	}
	d := f.Data[off:]
	return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24, nil
}

// DecodedPageFor returns the decoded-instruction cache page for the page
// containing pc, or nil when the fast path cannot be used (caches disabled,
// or no executable translation installed yet — which covers device register
// pages, since they never have one). A driver space's code decodes and
// fuses like any other: its register accesses are loads and stores the
// interpreter issues through Load32/Store32 in every tier. It is a pure
// probe: it never counts Faults and never installs translations, so it is
// invisible to diagnostics and virtual time.
func (as *AddrSpace) DecodedPageFor(pc uint32) *cpu.DecodedPage {
	if as.noFast {
		return nil
	}
	f := as.probe(pc, cpu.Exec)
	if f == nil {
		return nil
	}
	vpn := mem.VPN(pc)
	e := &as.icache[vpn%icSize]
	if e.page == nil || e.vpn != vpn || e.frame != f || e.page.Stale() {
		if e.page == nil {
			e.page = new(cpu.DecodedPage)
		} else {
			built := e.page.BuiltBlocks()
			as.exec.BlockInvalidations += uint64(built)
			if e.vpn == vpn && e.frame == f {
				as.exec.StaleResets++ // same page, dirtied by a store
				if built > 0 && e.thrash < blockThrashLimit {
					e.thrash++
				}
			} else {
				e.thrash = 0
			}
		}
		as.exec.PagesDecoded++
		e.vpn, e.frame = vpn, f
		e.page.Reset(&f.Gen)
		e.page.NoBlocks = as.noBlocks || e.thrash >= blockThrashLimit
	}
	return e.page
}

// DirectWindow returns a byte slice aliasing guest memory at va, usable
// for up to max bytes but never past the end of va's page, or nil when the
// access must take the slow path (fast paths disabled, no translation
// granting acc, or max == 0). A device register page never has a
// translation, so it never yields a window and its words reach the
// IOHandler one by one; every other page of a driver space does. A write
// window bumps the frame's store generation so decoded-instruction caches
// stay coherent. Callers must re-request the window after anything that
// can change translations (faults, scheduling).
func (as *AddrSpace) DirectWindow(va uint32, acc cpu.Access, max uint32) []byte {
	if as.noFast || max == 0 {
		return nil
	}
	f := as.probe(va, acc)
	if f == nil {
		return nil
	}
	off := va & mem.PageMask
	n := uint32(mem.PageSize) - off
	if n > max {
		n = max
	}
	if acc == cpu.Write {
		f.Bump()
	}
	return f.Data[off : off+n]
}

var _ cpu.Memory = (*AddrSpace)(nil)
var _ cpu.DecodedSource = (*AddrSpace)(nil)
