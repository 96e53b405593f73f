// Package mem implements the simulated physical memory substrate: a
// page-frame allocator with accounting, used by the MMU to back regions and
// by the kernel to charge per-object memory overhead (paper Table 7).
package mem

import (
	"errors"
	"fmt"
	"sync"
	"unsafe"
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
// it is always exactly PageSize bytes (len == cap).
//
// Data is safe to read, never to write directly. A frame's page may be
// lent: held elsewhere as well, so a write through the frame would be
// seen there too. Two holders lend pages. A frame nobody has written yet
// is unwritten: its Data aliases one page shared by every such frame and
// mapped read-only from the host, so a missed write site faults the
// process instead of corrupting every zero frame. And a checkpoint image
// borrows the pages of the frames it captures, and restores frames onto
// its own: an image page is immutable, so every frame holding one is
// lent. Host writers take the bytes from Allocator.Writable, which gives
// a lent frame a page of its own first, a copy of the one it was lent;
// the MMU never caches write permission for a lent frame, so guest
// stores reach Writable through its translate slow path.
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
	lent bool   // Data is held elsewhere too: copy it before writing
	Data []byte
}

// Bump invalidates content caches derived from this frame. Writers that
// mutate its bytes directly (through Allocator.Writable rather than the
// MMU's store paths) must call it.
func (f *Frame) Bump() { f.Gen++ }

// Unwritten reports whether f still aliases the shared zero page.
func (f *Frame) Unwritten() bool { return unsafe.SliceData(f.Data) == unsafe.SliceData(zeroPage) }

// Lent reports whether f's page is held elsewhere too (see Frame), so
// the next write must go through Allocator.Writable.
func (f *Frame) Lent() bool { return f.lent }

// Lend returns f's page for a holder outside the frame — a checkpoint
// image — which may keep it for as long as it likes and must never write
// it. From here on f copies the page before its next write.
func (f *Frame) Lend() []byte {
	f.lent = true
	return f.Data
}

// Zeros returns n zero bytes, n at most one page, backed by the zero page
// (see Frame): a source to copy from that costs no allocation. A write
// through it faults the process.
func Zeros(n int) []byte { return zeroPage[:n:n] }

// zeroPage is the contents of every unwritten frame (see Frame).
var zeroPage = mapZeroPage()

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

	// slab is the uncarved tail of the backing array Writable cuts
	// frames' own pages from; slabPages is the size of the last slab
	// reserved and carved the number of pages cut so far (see carve).
	// slabMu guards the three: under ParallelHost a CPU's store slow path
	// calls Writable holding only its space's step lock, so it can run
	// alongside Alloc and Free (under the kernel lock) and another CPU's
	// Writable.
	slabMu    sync.Mutex
	slab      []byte
	slabPages int
	carved    int
}

// slabMaxPages caps the slab Writable reserves at once: 64 pages, 256 KiB.
const slabMaxPages = 64

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
// its previous bytes if its page is its own, and a grown one, or one
// whose page was lent, is unwritten.
func (a *Allocator) take() (*Frame, error) {
	var f *Frame
	if n := len(a.free); n > 0 {
		f = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		f.Bump() // recycled frame: contents change, derived decodes are stale
		f.Refs = 1
		f.Cow = false
		if f.lent {
			f.Data = zeroPage // never clear a page someone else holds
		}
	} else {
		if a.inUse >= a.limit {
			return nil, ErrNoMemory
		}
		f = &Frame{PFN: a.nextPFN, Refs: 1, lent: true, Data: zeroPage}
		a.nextPFN++
	}
	a.inUse++
	if a.inUse > a.peak {
		a.peak = a.inUse
	}
	return f, nil
}

// Alloc returns a zeroed page frame, or ErrNoMemory when the configured
// physical memory is exhausted. A grown frame is unwritten and costs no
// page until Writable; a recycled one keeps its own page, cleared.
func (a *Allocator) Alloc() (*Frame, error) {
	f, err := a.take()
	if err != nil {
		return nil, err
	}
	if !f.lent { // after take, a lent frame is unwritten
		clear(f.Data)
	}
	return f, nil
}

// Writable returns f's contents for writing, first giving a lent frame
// a page of its own holding the same bytes. That changes no byte anyone
// can read, so it bumps no Gen and is invisible to virtual time; writers
// still bump Gen for what they write. f must be live and come from a.
func (a *Allocator) Writable(f *Frame) []byte {
	if f.lent {
		a.materialize(f)
	}
	return f.Data
}

// materialize gives a lent frame its own copy of its page. It is
// Writable's slow half, kept out of line so Writable inlines. An
// unwritten frame takes a zeroed page cut from a slab while the slab
// budget lasts; any other page is copied into one from the heap.
func (a *Allocator) materialize(f *Frame) {
	var d []byte
	if f.Unwritten() {
		a.slabMu.Lock()
		d = a.carve()
		a.slabMu.Unlock()
	}
	if d == nil {
		d = make([]byte, PageSize) // make+copy: the runtime skips the zeroing
		copy(d, f.Data)
	}
	f.Data, f.lent = d, false
}

// carve returns a fresh zeroed page for a frame materialize fills, cut
// from a slab so it costs one heap object per slab rather than per
// page, or nil once limit pages have been cut. Slabs double from one
// page up to slabMaxPages and never extend past the pages the limit
// still allows, so the carved pages plus the slab tail never exceed
// limit. A frame keeps its own page when recycled, so only a frame that
// gave it up for a borrowed one (AllocFrom) ever asks twice, and past
// the limit materialize takes its page from the heap instead. Each page
// is a three-index slice (len == cap == PageSize): no append through
// one frame can reach its neighbour. A slab stays live while any frame
// or image holds a page cut from it. The caller holds slabMu.
func (a *Allocator) carve() []byte {
	if a.carved == a.limit {
		return nil
	}
	if len(a.slab) == 0 {
		a.slabPages = min(max(2*a.slabPages, 1), slabMaxPages, a.limit-a.carved)
		a.slab = make([]byte, a.slabPages*PageSize)
	}
	d := a.slab[:PageSize:PageSize]
	a.slab = a.slab[PageSize:]
	a.carved++
	return d
}

// AllocFrom returns a frame built on page, which it borrows: the frame
// is lent (see Frame), so its first write copies page and nobody ever
// writes page itself. The caller must not write it either. A recycled
// frame gives up the page it had.
func (a *Allocator) AllocFrom(page []byte) (*Frame, error) {
	if len(page) != PageSize {
		panic(fmt.Sprintf("mem: frame contents of %d bytes", len(page)))
	}
	f, err := a.take()
	if err != nil {
		return nil, err
	}
	f.Data, f.lent = page[:PageSize:PageSize], true
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
