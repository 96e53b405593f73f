// Incremental (delta) snapshots: checkpoint cost proportional to what
// changed, not what exists.
//
// A snapshot taken against a parent image re-captures the cheap
// structural state in full — threads, handle table, mappings, region
// shapes are a few hundred bytes — but frame payloads, the dominant
// cost, only for pages the dirty tracker cannot prove unchanged. A page
// may reference its parent's frame record instead of carrying bytes
// when three things hold: its region has been tracking, undisturbed,
// since the parent armed it (same tracking epoch — an unrelated
// snapshot re-arming the region in between voids the log); the tracker
// never logged the page (no store, no frame-identity or sharing change
// — see internal/mmu); and the parent actually holds the page. Because
// any change of a page's backing frame is logged, a clean page has been
// backed by the same frame continuously since the parent walked it, so
// its reference is simply the parent's page-table entry at the same
// region and page. No frame-identity map is consulted: page tables are
// dense slices mirroring mmu.Region's, and the parent remembers which
// live region each of its records came from (Image.src).
//
// Frames aliased into several region slots by zero-copy IPC (Refs > 1)
// are the exception. For them the decision is made per frame, globally:
// such a frame is parent-referenced only if every aliasing page is
// clean, and captured exactly once otherwise — so the restored sharing
// structure (refcounts, copy-on-write marks) is identical whichever
// path a page took. They, and only they, go through an identity map.
// TestDeltaEquivalence pins base+delta restore bit-identical to
// full-image restore, the same way every fast path in this repo is
// pinned against its slow path.
//
// Buffer ownership: a FrameRecord's Data is written once, when the frame
// is captured, and is immutable from then on. Apply shares it between
// the delta, the parent and the image it returns; Restore copies out of
// it. Only a migration's final restore — whose whole chain is private
// and about to be dropped — gives the buffers away (see restore).
package checkpoint

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
)

// PageRef names the backing frame of one page of a delta snapshot: an
// index into the delta's own Frames when Delta is set, or into the parent
// image's Frames when the page was provably unchanged. A negative Idx
// marks an absent page.
type PageRef struct {
	Delta bool
	Idx   int32
}

// DeltaRegionRecord is a RegionRecord whose pages may reference parent
// frames. Pages is dense like RegionRecord's — one entry per page in
// address order — so a page absent here but present in the parent was
// evicted and stays absent after restore.
type DeltaRegionRecord struct {
	Size        uint32
	DemandZero  bool
	PagerPortVA uint32
	Pages       []PageRef
}

// DeltaImage is a snapshot taken against a parent Image. Structure is
// complete (Apply needs nothing from the parent but frame bytes), so a
// delta restores anywhere the parent could, given the parent image.
type DeltaImage struct {
	Threads  []ThreadRecord
	Objects  []ObjectRecord
	Frames   []FrameRecord // dirty frames only
	Regions  []DeltaRegionRecord
	Mappings []MappingRecord
	NIC      *dev.NICState

	// CleanFrames counts the distinct frames referenced from the parent
	// instead of captured — the frames the dirty tracker saved.
	CleanFrames int
}

// FrameBytes returns the frame payload the delta actually carries: the
// transfer cost of shipping this snapshot given the receiver already
// holds the parent.
func (d *DeltaImage) FrameBytes() int { return len(d.Frames) * mem.PageSize }

// Resolutions of an aliased frame (Refs > 1) during finalizeDelta, stored
// where its delta frame index goes once it has one.
const (
	toCapture  = -1 // some aliasing page is not clean: capture, once
	fromParent = -2 // every aliasing page is clean: reference the parent
)

// pageClean reports whether page p of live region r may reference the
// parent's frame: pt is the parent's page table for r (nil when the log
// cannot be trusted), and the parent must actually hold the page.
func pageClean(r *mmu.Region, pt []int32, p int) bool {
	return pt != nil && pt[p] >= 0 && !r.IsDirty(uint32(p)<<mem.PageShift)
}

// finalizeDelta records every page of every walked region as a PageRef
// against parent, in address order, and re-arms tracking. A clean page's
// reference is read straight out of the parent's page table at the same
// region and page. Only frames aliased into several slots need more: they
// are swept first so that one dirty alias forces the capture at every
// site, and deduplicated by identity so they are captured once.
func (c *memCap) finalizeDelta(d *DeltaImage, parent *Image) {
	aliased := map[*mem.Frame]int32{}
	for i, r := range c.regs {
		pt := parent.trackedPages(r, i)
		for p, f := range r.Frames() {
			if f != nil && f.Refs > 1 && !pageClean(r, pt, p) {
				aliased[f] = toCapture
			}
		}
	}

	d.Regions = make([]DeltaRegionRecord, len(c.regs))
	for i, r := range c.regs {
		pt := parent.trackedPages(r, i)
		frames := r.Frames()
		pages := make([]PageRef, len(frames))
		for p, f := range frames {
			switch {
			case f == nil:
				pages[p] = PageRef{Idx: absent}
			case f.Refs == 1 && pageClean(r, pt, p):
				pages[p] = PageRef{Idx: pt[p]}
				d.CleanFrames++
			case f.Refs == 1:
				pages[p] = PageRef{Delta: true, Idx: capture(&d.Frames, f)}
			default:
				fi, seen := aliased[f]
				switch {
				case !seen:
					fi = fromParent
					aliased[f] = fi
					d.CleanFrames++
				case fi == toCapture:
					fi = capture(&d.Frames, f)
					aliased[f] = fi
				}
				if fi == fromParent {
					pages[p] = PageRef{Idx: pt[p]}
				} else {
					pages[p] = PageRef{Delta: true, Idx: fi}
				}
			}
		}
		d.Regions[i] = DeltaRegionRecord{
			Size: r.Size, DemandZero: r.DemandZero, PagerPortVA: c.pagerVA(r), Pages: pages,
		}
	}
}

// validate checks every index and length Apply is about to trust.
func (d *DeltaImage) validate(parent *Image) error {
	own, parentFrames := len(d.Frames), 0
	if parent != nil {
		parentFrames = len(parent.Frames)
	}
	for i, fr := range d.Frames {
		if len(fr.Data) != mem.PageSize {
			return fmt.Errorf("checkpoint: delta frame %d holds %d bytes, want %d", i, len(fr.Data), mem.PageSize)
		}
	}
	for i, rr := range d.Regions {
		for p, pr := range rr.Pages {
			if pr.Delta && int(pr.Idx) >= own {
				return fmt.Errorf("checkpoint: region %d page %d names delta frame %d of %d", i, p, pr.Idx, own)
			}
			if !pr.Delta && int(pr.Idx) >= parentFrames {
				return fmt.Errorf("checkpoint: region %d page %d names parent frame %d of %d", i, p, pr.Idx, parentFrames)
			}
		}
	}
	return nil
}

// Apply materializes the delta against its parent into a plain Image,
// restorable with Restore like any full snapshot. Applying a chain is
// just folding: Apply each delta onto the image produced by the last.
//
// Delta frames keep their indexes; parent frames follow, appended on
// first reference while regions and pages are walked in address order,
// so the result's frame numbering is a function of the delta alone. The
// result shares its FrameRecord.Data buffers with d and parent: frame
// records are immutable once captured, and that is what makes a chain
// cost one copy per dirtied page rather than one per page per round.
func (d *DeltaImage) Apply(parent *Image) (*Image, error) {
	if err := d.validate(parent); err != nil {
		return nil, err
	}
	img := &Image{
		Threads:  d.Threads,
		Objects:  d.Objects,
		Mappings: d.Mappings,
		NIC:      d.NIC,
		Regions:  make([]RegionRecord, len(d.Regions)),
	}
	// moved[pi] is where parent frame pi landed in img.Frames, absent
	// until some page references it.
	var moved []int32
	if parent != nil {
		moved = make([]int32, len(parent.Frames))
		for i := range moved {
			moved[i] = absent
		}
	}
	img.Frames = make([]FrameRecord, len(d.Frames), len(d.Frames)+len(moved))
	copy(img.Frames, d.Frames)
	for i, rr := range d.Regions {
		pages := make([]int32, len(rr.Pages))
		for p, pr := range rr.Pages {
			switch {
			case pr.Idx < 0:
				pages[p] = absent
			case pr.Delta:
				pages[p] = pr.Idx
			default:
				if moved[pr.Idx] < 0 {
					moved[pr.Idx] = int32(len(img.Frames))
					img.Frames = append(img.Frames, parent.Frames[pr.Idx])
				}
				pages[p] = moved[pr.Idx]
			}
		}
		img.Regions[i] = RegionRecord{
			Size: rr.Size, DemandZero: rr.DemandZero, PagerPortVA: rr.PagerPortVA, Pages: pages,
		}
	}
	return img, nil
}

// finishDelta turns the walk c has registered into the delta against
// parent and the materialized image, which takes over as the live
// space's delta parent (tracking re-armed, walked regions recorded).
func (c *memCap) finishDelta(k *core.Kernel, d *DeltaImage, parent *Image) (*Image, error) {
	c.finalizeDelta(d, parent)
	img, err := d.Apply(parent)
	if err != nil {
		return nil, err
	}
	c.rearm(img)
	if k.Metrics != nil {
		k.Metrics.CkptDeltaSnapshots.Inc()
		k.Metrics.CkptFramesCaptured.Add(uint64(len(d.Frames)))
		k.Metrics.CkptFramesClean.Add(uint64(d.CleanFrames))
	}
	return img, nil
}

// CaptureDelta checkpoints space s against parent (an Image previously
// captured from the same live space): a full Capture whose frame
// payload holds only what changed. It returns both the delta (what a
// migration would ship) and the materialized image (delta applied to
// parent, ready for Restore or to parent the next delta). Threads are
// left stopped, exactly like Capture.
func CaptureDelta(k *core.Kernel, s *obj.Space, parent *Image) (*DeltaImage, *Image, error) {
	d := &DeltaImage{}
	c := newMemCap(s)
	d.Threads, d.Objects, d.Mappings = captureStruct(k, s, c)
	img, err := c.finishDelta(k, d, parent)
	if err != nil {
		return nil, nil, err
	}
	return d, img, nil
}

// walkRegions registers every region reachable from s's mappings and
// region handles without touching thread state — the enumeration
// captureStruct performs, minus stopping the space.
func walkRegions(s *obj.Space, c *memCap) {
	for _, m := range s.AS.Mappings() {
		if m.Base == core.KObjBase {
			continue
		}
		c.regionOf(m.Region)
	}
	for _, o := range s.Objects {
		if r, ok := o.(*obj.Region); ok && !r.Hdr().Dead {
			c.regionOf(r.R)
		}
	}
}

// SnapshotMemory captures only the memory of s — no thread is stopped,
// no structural state is recorded. The simulator is host-driven, so
// between RunFor slices guest memory is quiescent and the copy is
// consistent; the space keeps running (in simulated time) entirely
// unperturbed. The result arms dirty tracking and can parent deltas:
// this is the warm baseline of a pre-copy migration.
func SnapshotMemory(k *core.Kernel, s *obj.Space) (*Image, error) {
	img := &Image{}
	c := newMemCap(s)
	walkRegions(s, c)
	c.finalizeFull(img)
	if k.Metrics != nil {
		k.Metrics.CkptSnapshots.Inc()
		k.Metrics.CkptFramesCaptured.Add(uint64(len(img.Frames)))
	}
	return img, nil
}

// SnapshotMemoryDelta is SnapshotMemory against a parent: it captures
// the frames dirtied since the parent was taken, again without stopping
// the space. Returns the delta and the materialized image.
func SnapshotMemoryDelta(k *core.Kernel, s *obj.Space, parent *Image) (*DeltaImage, *Image, error) {
	d := &DeltaImage{}
	c := newMemCap(s)
	walkRegions(s, c)
	img, err := c.finishDelta(k, d, parent)
	if err != nil {
		return nil, nil, err
	}
	return d, img, nil
}
