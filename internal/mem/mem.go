// Package mem implements the simulated physical memory substrate: a
// page-frame allocator with accounting, used by the MMU to back regions and
// by the kernel to charge per-object memory overhead (paper Table 7).
package mem

import (
	"errors"
	"fmt"
)

// PageSize is the simulated page size in bytes (4 KB, as on the x86 the
// paper evaluated on).
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// PageMask masks the offset within a page.
const PageMask = PageSize - 1

// ErrNoMemory is returned when the allocator is exhausted.
var ErrNoMemory = errors.New("mem: out of physical memory")

// Frame is one physical page frame. The Data slice is the frame's contents;
// it is always exactly PageSize bytes.
//
// Gen is the frame's store-generation counter: every writer of Data must
// bump it (the MMU store paths do; DMA engines and other host-side writers
// call Bump). Derived caches of frame *contents* — the decoded-instruction
// cache — validate against Gen, so a stale decode can never be executed.
// Gen is simulator bookkeeping only and never feeds virtual time.
//
// Refs is the frame's reference count: the number of region slots holding
// the frame. Alloc hands out frames with Refs == 1; zero-copy IPC raises it
// via Allocator.Share, and Free only recycles the frame once the count
// drops back to zero.
//
// Cow marks a frame whose cached translations have been write-protected
// because it is (or recently was) shared: a store through any mapping of a
// Cow frame must fault so the MMU can break the share (or, once Refs has
// dropped back to 1, simply restore write permission). The flag is owned
// by the MMU layer; mem only clears it on recycle.
type Frame struct {
	PFN  uint32 // physical frame number, unique per allocator
	Gen  uint64 // store generation; bumped on every write to Data
	Refs int32  // region slots holding this frame; 0 = on the free list
	Cow  bool   // stores must fault so the share can be broken
	Data []byte
}

// Bump invalidates content caches derived from this frame. Writers that
// mutate Data directly (rather than through the MMU) must call it.
func (f *Frame) Bump() { f.Gen++ }

// Shared reports whether more than one region slot holds the frame.
func (f *Frame) Shared() bool { return f.Refs > 1 }

// Allocator hands out page frames from a fixed-size simulated physical
// memory, modelling the 64 MB machine of the paper's evaluation by default.
type Allocator struct {
	limit   int // max frames
	nextPFN uint32
	free    []*Frame
	inUse   int
	peak    int
}

// DefaultFrames is the default physical memory size: 64 MB, matching the
// 200 MHz Pentium Pro / 64 MB testbed in the paper.
const DefaultFrames = 64 << 20 / PageSize

// NewAllocator returns an allocator that will hand out at most maxFrames
// frames. maxFrames <= 0 selects DefaultFrames.
func NewAllocator(maxFrames int) *Allocator {
	if maxFrames <= 0 {
		maxFrames = DefaultFrames
	}
	return &Allocator{limit: maxFrames}
}

// take pops a recycled frame or grows the pool, and is the one place a
// frame's bookkeeping (Refs, Cow, Gen, the in-use and peak counts) is set
// up. Contents are the caller's business: a recycled frame still holds
// its previous bytes, a grown one has no Data yet.
func (a *Allocator) take() (*Frame, error) {
	var f *Frame
	if n := len(a.free); n > 0 {
		f = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		f.Bump() // recycled frame: contents change, derived decodes are stale
		f.Refs = 1
		f.Cow = false
	} else {
		if a.inUse >= a.limit {
			return nil, ErrNoMemory
		}
		f = &Frame{PFN: a.nextPFN, Refs: 1}
		a.nextPFN++
	}
	a.inUse++
	if a.inUse > a.peak {
		a.peak = a.inUse
	}
	return f, nil
}

// Alloc returns a zeroed page frame, or ErrNoMemory when the configured
// physical memory is exhausted.
func (a *Allocator) Alloc() (*Frame, error) {
	f, err := a.take()
	if err != nil {
		return nil, err
	}
	if f.Data == nil {
		f.Data = make([]byte, PageSize)
	} else {
		clear(f.Data)
	}
	return f, nil
}

// AllocFrom returns a frame holding the PageSize bytes of page, written
// at most once: no zero-fill precedes the copy. With adopt set the
// allocator takes ownership of the buffer — a grown frame uses page
// itself as its Data, with no copy at all, and the caller must not touch
// it again. (A recycled frame already owns a buffer and is copied into
// either way.)
func (a *Allocator) AllocFrom(page []byte, adopt bool) (*Frame, error) {
	if len(page) != PageSize {
		panic(fmt.Sprintf("mem: frame contents of %d bytes", len(page)))
	}
	f, err := a.take()
	if err != nil {
		return nil, err
	}
	switch {
	case f.Data != nil:
		copy(f.Data, page)
	case adopt:
		f.Data = page
	default:
		data := make([]byte, PageSize) // make+copy: the runtime skips the zeroing
		copy(data, page)
		f.Data = data
	}
	return f, nil
}

// Share raises f's reference count: one more region slot now holds the
// frame. Sharing a frame that is not live (already on the free list, or
// never allocated) is a programming error and panics with the frame's
// identity.
func (a *Allocator) Share(f *Frame) {
	if f == nil || f.Refs < 1 {
		panic(fmt.Sprintf("mem: share of dead frame %s", frameID(f)))
	}
	f.Refs++
}

// Unshare drops one reference from a frame that remains live afterwards.
// It is Free restricted to the Refs > 1 case: callers who know they are
// releasing a shared duplicate (and must not recycle the frame) use it to
// make that invariant explicit.
func (a *Allocator) Unshare(f *Frame) {
	if f == nil || f.Refs < 2 {
		panic(fmt.Sprintf("mem: unshare of unshared frame %s", frameID(f)))
	}
	f.Refs--
}

// Free drops one reference to a frame and recycles it once the count
// reaches zero. Freeing nil is a no-op; freeing a frame whose count is
// already zero (a double free, or an underflowing unshare) is a
// programming error and panics with the frame's identity.
func (a *Allocator) Free(f *Frame) {
	if f == nil {
		return
	}
	if f.Refs < 1 {
		panic(fmt.Sprintf("mem: double free of frame %s", frameID(f)))
	}
	f.Refs--
	if f.Refs > 0 {
		return
	}
	a.inUse--
	a.free = append(a.free, f)
}

// frameID renders a frame's identity for allocator panics.
func frameID(f *Frame) string {
	if f == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%d (refs=%d, gen=%d)", f.PFN, f.Refs, f.Gen)
}

// InUse returns the number of frames currently allocated.
func (a *Allocator) InUse() int { return a.inUse }

// Peak returns the high-water mark of allocated frames.
func (a *Allocator) Peak() int { return a.peak }

// Limit returns the total number of allocatable frames.
func (a *Allocator) Limit() int { return a.limit }

// BytesInUse returns allocated bytes.
func (a *Allocator) BytesInUse() int { return a.inUse * PageSize }

// PageRound rounds n up to the next page boundary.
func PageRound(n uint32) uint32 {
	return (n + PageMask) &^ uint32(PageMask)
}

// PageTrunc rounds n down to a page boundary.
func PageTrunc(n uint32) uint32 {
	return n &^ uint32(PageMask)
}

// VPN returns the virtual page number of an address.
func VPN(va uint32) uint32 { return va >> PageShift }
