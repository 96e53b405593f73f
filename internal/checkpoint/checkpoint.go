// Package checkpoint implements user-level checkpointing, restore, and
// migration — the services the paper's atomic API exists to enable (§1,
// §4.1, and the companion work cited as [31], "User-level Checkpointing
// Through Exportable Kernel State").
//
// The checkpointer plays the role of an ordinary user-mode manager. It
// relies on exactly the two API guarantees the paper names:
//
//   - promptness: every thread's state can be captured without waiting on
//     any other user-mode activity, no matter what the thread is doing —
//     including sleeping inside a "long" system call or mid-way through a
//     multi-stage IPC;
//   - correctness: a thread destroyed and re-created from its captured
//     state "behaves indistinguishably from the original". No kernel
//     stack needs saving because there is nothing on it worth saving: a
//     blocked thread's user PC names the syscall entrypoint that
//     transparently resumes its operation (mutex_lock re-waits,
//     thread_sleep re-arms from the rolled-forward deadline in R2/R3, an
//     interrupted IPC continues from its rolled-forward buffer registers).
//
// Because wait-queue membership is never part of a thread's exported
// state, restore does not reconstruct wait queues at all: a thread that
// was blocked simply restarts its interrupted system call and re-blocks
// by itself. This is the paper's continuation-in-the-registers design
// doing its job.
//
// The memory side of an image is laid out like the MMU's own tables:
// each region record carries a dense page table (one frame index per
// page, in address order) into a flat list of frame records. Capture,
// Apply and Restore all walk it in address order, so frame indexes and
// the physical frames a restore hands out are deterministic, and every
// index and length is validated before use — an image is data, possibly
// from elsewhere, and a bad one is an error, not a host panic.
package checkpoint

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/sys"
)

// ThreadRecord captures one thread.
type ThreadRecord struct {
	OldID    uint32
	HandleVA uint32
	State    [core.ThreadStateWords]uint32
	// HomeCPU is the simulated CPU the thread last ran on. Restore maps
	// it mod the target kernel's CPU count, so an image taken on a
	// 4-CPU kernel restores sensibly on a uniprocessor and vice versa.
	HomeCPU int
	// Both IPC connection halves, for intra-image relinking (peer IDs
	// are pre-capture thread IDs).
	CliPhase  obj.IPCPhase
	CliPeerID uint32
	SrvPhase  obj.IPCPhase
	SrvPeerID uint32
}

// ObjectRecord captures one handle-table entry (non-thread, non-space).
type ObjectRecord struct {
	VA   uint32
	Type sys.ObjType
	Name string

	// Type-specific state.
	MutexLocked   bool
	MutexHolderID uint32
	RegionIdx     int    // Regions index for region objects (-1 otherwise)
	MappingIdx    int    // Mappings index for mapping objects (-1 otherwise)
	RefTargetVA   uint32 // handle VA of the referenced object (same space)
	RefValid      bool
	PortsetPorts  []uint32 // handle VAs of member ports
}

// FrameRecord captures one physical frame's contents. Regions reference
// frames by index rather than embedding bytes so that a frame aliased
// into several region slots by the zero-copy IPC path is captured once
// and restored as one frame with the same sharing structure (refcount,
// copy-on-write protection) — not silently deep-copied.
type FrameRecord struct {
	Data []byte
	Cow  bool // stores must fault so the share can be broken
}

// RegionRecord captures an exportable memory region and its page table.
// Pages mirrors mmu.Region's own table: one entry per page in address
// order, holding the index of the backing frame in Image.Frames, or a
// negative value where the page is absent. A table shorter than the
// region leaves the tail absent.
type RegionRecord struct {
	Size        uint32
	DemandZero  bool
	PagerPortVA uint32 // handle VA of the pager port within the image, 0 if none
	Pages       []int32
}

// absent marks a page with no backing frame in a dense page table.
const absent = -1

// MappingRecord captures one installed mapping.
type MappingRecord struct {
	Base      uint32
	Size      uint32
	RegionIdx int
	RegionOff uint32
	Perm      mmu.Perm
}

// Image is a complete space checkpoint.
type Image struct {
	Threads  []ThreadRecord
	Objects  []ObjectRecord
	Frames   []FrameRecord
	Regions  []RegionRecord
	Mappings []MappingRecord

	// NIC, when non-nil, carries the saved state of a network interface
	// whose rings live in this space's memory (CaptureWithNIC). The DMA
	// pages themselves are ordinary region pages and travel in Frames;
	// this is the device-side state: ring indexes, interrupt posture,
	// in-flight timers and pending wire frames.
	NIC *dev.NICState

	// src makes the image usable as the parent of a later delta snapshot
	// of the same live space: src[i] is the live region Regions[i] was
	// walked from and the tracking epoch this capture armed on it. A page
	// of that region the tracker still vouches for is backed by the very
	// frame Regions[i].Pages names at the same page index, so a delta
	// needs no frame-identity map to find its parent reference. Transient:
	// identity-based, meaningless outside the source kernel, and empty on
	// images that were not captured live (Apply's result).
	src []liveRegion
}

// liveRegion ties a RegionRecord to the region it was captured from.
type liveRegion struct {
	r     *mmu.Region
	epoch uint64 // r.TrackEpoch() as armed by the capture
}

// FrameBytes returns the frame payload carried by the image — the
// dominant cost of a snapshot, and the quantity delta snapshots shrink.
// Every frame record of a valid image is exactly one page.
func (img *Image) FrameBytes() int { return len(img.Frames) * mem.PageSize }

// trackedPages returns the image's page table for live region r — the
// parent references a delta may use — or nil when the dirty log cannot
// vouch for it: the image never walked r, tracking was stopped, or
// someone else re-armed the tracker since (the epoch moved on), throwing
// away marks this image's chain depended on. hint is where r sits in the
// caller's walk, which is where it sits in the image unless the set of
// regions changed.
func (img *Image) trackedPages(r *mmu.Region, hint int) []int32 {
	if img == nil {
		return nil
	}
	i := hint
	if i >= len(img.src) || img.src[i].r != r {
		i = slices.IndexFunc(img.src, func(l liveRegion) bool { return l.r == r })
		if i < 0 {
			return nil
		}
	}
	if !r.DirtyTracking() || r.TrackEpoch() != img.src[i].epoch || len(img.Regions[i].Pages) != r.Pages() {
		return nil
	}
	return img.Regions[i].Pages
}

// memCap accumulates the distinct regions reachable from a space's
// mappings and region handles. Page contents are recorded in a finalize
// sweep (finalizeFull or finalizeDelta) so that full and delta snapshots
// share one enumeration, and so the delta sweep can decide captured-vs-
// parent-referenced per *frame* globally — a frame aliased into several
// regions by zero-copy IPC must resolve the same way at every site.
type memCap struct {
	s    *obj.Space
	idx  map[*mmu.Region]int
	regs []*mmu.Region
}

func newMemCap(s *obj.Space) *memCap {
	return &memCap{s: s, idx: map[*mmu.Region]int{}}
}

func (c *memCap) regionOf(r *mmu.Region) int {
	if i, ok := c.idx[r]; ok {
		return i
	}
	i := len(c.regs)
	c.idx[r] = i
	c.regs = append(c.regs, r)
	return i
}

func (c *memCap) pagerVA(r *mmu.Region) uint32 {
	if p, ok := r.Pager.(*obj.Port); ok && p != nil && p.Owner == c.s {
		return p.VA
	}
	return 0
}

// capture records live frame f in frames and returns its index. The
// record borrows f's page rather than copying it: f is lent from here on
// and copies the page before its next write (mem.Frame). Until then no
// cached translation may grant a store into it, which the caller's
// rearm guarantees for every walked region: arming drops write from
// their TLB slots, and a frame aliased into an unwalked region is Cow,
// so no slot grants write to it anyway.
func capture(frames *[]FrameRecord, f *mem.Frame) int32 {
	*frames = append(*frames, FrameRecord{Data: f.Lend(), Cow: f.Cow})
	return int32(len(*frames) - 1)
}

// finalizeFull records every present page of every walked region, in
// address order, and leaves img able to parent a delta. A frame held by
// one region slot — all of them, outside zero-copy IPC — is captured
// where it is met; only a frame aliased into several slots (Refs > 1)
// goes through an identity map, so it is captured once.
func (c *memCap) finalizeFull(img *Image) {
	present := 0
	for _, r := range c.regs {
		present += r.PresentPages()
	}
	img.Frames = make([]FrameRecord, 0, present)
	img.Regions = make([]RegionRecord, len(c.regs))
	aliased := map[*mem.Frame]int32{}
	for i, r := range c.regs {
		frames := r.Frames()
		pages := make([]int32, len(frames))
		for p, f := range frames {
			switch {
			case f == nil:
				pages[p] = absent
			case f.Refs == 1:
				pages[p] = capture(&img.Frames, f)
			default:
				fi, ok := aliased[f]
				if !ok {
					fi = capture(&img.Frames, f)
					aliased[f] = fi
				}
				pages[p] = fi
			}
		}
		img.Regions[i] = RegionRecord{
			Size: r.Size, DemandZero: r.DemandZero, PagerPortVA: c.pagerVA(r), Pages: pages,
		}
	}
	c.rearm(img)
}

// rearm restarts dirty tracking on every walked region and records the
// regions and their new epochs in img, making the snapshot just taken a
// valid delta parent. Arming costs no simulated cycles (see
// internal/mmu), so every capture does it unconditionally.
func (c *memCap) rearm(img *Image) {
	img.src = make([]liveRegion, len(c.regs))
	for i, r := range c.regs {
		r.StartDirtyTracking()
		img.src[i] = liveRegion{r: r, epoch: r.TrackEpoch()}
	}
}

// Capture checkpoints space s: stops every thread (promptly — settling
// any thread the full-preemption configuration parked mid-kernel), then
// records threads, handle table, mappings, and memory. Threads are left
// stopped; call ResumeAll or discard the space.
func Capture(k *core.Kernel, s *obj.Space) (*Image, error) {
	img := &Image{}
	c := newMemCap(s)
	img.Threads, img.Objects, img.Mappings = captureStruct(k, s, c)
	c.finalizeFull(img)
	if k.Metrics != nil {
		k.Metrics.CkptSnapshots.Inc()
		k.Metrics.CkptFramesCaptured.Add(uint64(len(img.Frames)))
	}
	return img, nil
}

// captureStruct stops every thread of s (promptly), then records the
// structural side of a checkpoint — threads, handle table, mappings —
// registering every reachable region with c. Page contents are left to
// the caller's finalize sweep (full or delta).
func captureStruct(k *core.Kernel, s *obj.Space, c *memCap) (threads []ThreadRecord, objects []ObjectRecord, mappings []MappingRecord) {
	// Remember which threads were suspended *before* the checkpointer
	// froze the space: those stay stopped on restore; the rest run.
	preStopped := map[*obj.Thread]bool{}
	for _, t := range s.Threads {
		preStopped[t] = t.Stopped
		k.Settle(t)
		t.Stopped = true
	}

	mapIdx := map[*mmu.Mapping]int{}
	for _, m := range s.AS.Mappings() {
		if m.Base == core.KObjBase {
			continue // the reserved kernel-handle window is rebuilt by NewSpace
		}
		mapIdx[m] = len(mappings)
		mappings = append(mappings, MappingRecord{
			Base: m.Base, Size: m.Size,
			RegionIdx: c.regionOf(m.Region), RegionOff: m.RegionOff, Perm: m.Perm,
		})
	}

	// In VA order, so an image (and the order a restore starts threads
	// in) is a function of kernel state alone.
	s.Each(func(va uint32, o obj.Obj) {
		h := o.Hdr()
		if h.Dead {
			return
		}
		switch x := o.(type) {
		case *obj.Space:
			return // the self handle is rebuilt
		case *obj.Thread:
			st := core.EncodeThreadState(x)
			if !preStopped[x] {
				st[core.TSCtl] &^= 1 // stopped only by the capture itself
			}
			tr := ThreadRecord{
				OldID: x.ID, HandleVA: va, State: st, HomeCPU: x.HomeCPU,
				CliPhase: x.IPCClient.Phase, SrvPhase: x.IPCServer.Phase,
			}
			if x.IPCClient.Peer != nil {
				tr.CliPeerID = x.IPCClient.Peer.ID
			}
			if x.IPCServer.Peer != nil {
				tr.SrvPeerID = x.IPCServer.Peer.ID
			}
			threads = append(threads, tr)
		default:
			rec := ObjectRecord{VA: va, Type: h.Type, Name: h.Name, RegionIdx: -1, MappingIdx: -1}
			switch x := o.(type) {
			case *obj.Mutex:
				rec.MutexLocked = x.Locked
				if x.Holder != nil {
					rec.MutexHolderID = x.Holder.ID
				}
			case *obj.Region:
				rec.RegionIdx = c.regionOf(x.R)
			case *obj.Mapping:
				if i, ok := mapIdx[x.M]; ok {
					rec.MappingIdx = i
				}
			case *obj.Ref:
				if x.Target != nil && x.Target.Hdr().Owner == s {
					rec.RefTargetVA = x.Target.Hdr().VA
					rec.RefValid = true
				}
			case *obj.Portset:
				for _, p := range x.Ports {
					if p.Owner == s {
						rec.PortsetPorts = append(rec.PortsetPorts, p.VA)
					}
				}
			}
			objects = append(objects, rec)
		}
	})
	return threads, objects, mappings
}

// CaptureWithNIC is Capture plus the device-side state of a NIC whose
// rings live in s's memory: the returned image restores to a space whose
// in-flight transmit/receive traffic resumes where it left off (pair
// with RestoreNIC after Restore).
func CaptureWithNIC(k *core.Kernel, s *obj.Space, nic *dev.NIC) (*Image, error) {
	img, err := Capture(k, s)
	if err != nil {
		return nil, err
	}
	img.NIC = nic.SaveState()
	return img, nil
}

// RestoreNIC loads the image's saved NIC state into nic, which the
// caller has attached to the restored space exactly as the original was
// attached to the source (same queue shapes, same DMA region layout —
// the DMA pages themselves were restored with the space's memory).
func RestoreNIC(img *Image, nic *dev.NIC) error {
	if img.NIC == nil {
		return fmt.Errorf("checkpoint: image carries no NIC state")
	}
	return nic.LoadState(img.NIC)
}

// validate checks every index and length Restore is about to trust, so
// an image that arrived from outside — decoded, edited, hostile — is
// refused with an error instead of panicking the host half-way through.
func (img *Image) validate() error {
	for i, fr := range img.Frames {
		if len(fr.Data) != mem.PageSize {
			return fmt.Errorf("checkpoint: frame %d holds %d bytes, want %d", i, len(fr.Data), mem.PageSize)
		}
	}
	for i, rr := range img.Regions {
		if n := mem.PageRound(rr.Size) / mem.PageSize; uint64(len(rr.Pages)) > uint64(n) {
			return fmt.Errorf("checkpoint: region %d has a %d-entry page table but only %d pages", i, len(rr.Pages), n)
		}
		for p, fi := range rr.Pages {
			if int(fi) >= len(img.Frames) {
				return fmt.Errorf("checkpoint: region %d page %d names frame %d of %d", i, p, fi, len(img.Frames))
			}
		}
	}
	for i, mr := range img.Mappings {
		if mr.RegionIdx < 0 || mr.RegionIdx >= len(img.Regions) {
			return fmt.Errorf("checkpoint: mapping %d names region %d of %d", i, mr.RegionIdx, len(img.Regions))
		}
	}
	for _, or := range img.Objects {
		if or.Type == sys.ObjRegion && (or.RegionIdx < 0 || or.RegionIdx >= len(img.Regions)) {
			return fmt.Errorf("checkpoint: region object at %#x names region %d of %d", or.VA, or.RegionIdx, len(img.Regions))
		}
		if or.Type == sys.ObjMapping && or.MappingIdx >= len(img.Mappings) {
			return fmt.Errorf("checkpoint: mapping object at %#x names mapping %d of %d", or.VA, or.MappingIdx, len(img.Mappings))
		}
	}
	for _, tr := range img.Threads {
		if tr.HomeCPU < 0 {
			return fmt.Errorf("checkpoint: thread %d has home CPU %d", tr.OldID, tr.HomeCPU)
		}
	}
	return nil
}

// Restore materializes an image as a new space on kernel k2 (which may be
// a different kernel instance — that is migration). Restored threads are
// stopped; start them with StartAll. The new frames are built on the
// image's pages (mem.Allocator.AllocFrom) and copy one only when they
// first write it, so the image is never written: it can be restored
// again, or keep serving as the parent of further deltas whose records
// share its pages.
func Restore(k2 *core.Kernel, img *Image) (*obj.Space, []*obj.Thread, error) {
	if err := img.validate(); err != nil {
		return nil, nil, err
	}
	s := k2.NewSpace()

	// Regions and their contents, in address order so the frames each
	// page receives (PFNs included) are a function of the image alone.
	// Frames are materialized once, on first reference; a later slot
	// naming the same frame index shares it, so the image's COW structure
	// (one backing frame, refcount = number of region slots) survives the
	// round trip.
	frames := make([]*mem.Frame, len(img.Frames))
	regions := make([]*mmu.Region, len(img.Regions))
	for i, rr := range img.Regions {
		r := mmu.NewRegion(rr.Size, rr.DemandZero)
		for p, fi := range rr.Pages {
			if fi < 0 {
				continue
			}
			f := frames[fi]
			if f == nil {
				var err error
				f, err = k2.Alloc.AllocFrom(img.Frames[fi].Data)
				if err != nil {
					return nil, nil, err
				}
				f.Cow = img.Frames[fi].Cow
				frames[fi] = f
			} else {
				k2.Alloc.Share(f)
			}
			r.Populate(uint32(p)<<mem.PageShift, f)
		}
		regions[i] = r
	}

	// Mappings.
	mappings := make([]*mmu.Mapping, len(img.Mappings))
	for i, mr := range img.Mappings {
		m := &mmu.Mapping{
			Region: regions[mr.RegionIdx], RegionOff: mr.RegionOff,
			Base: mr.Base, Size: mr.Size, Perm: mr.Perm,
		}
		if err := s.AS.Map(m); err != nil {
			return nil, nil, fmt.Errorf("checkpoint: remap [%#x,+%#x): %w", mr.Base, mr.Size, err)
		}
		mappings[i] = m
	}

	// Objects, first pass: create and bind.
	created := map[uint32]obj.Obj{}
	for _, or := range img.Objects {
		var o obj.Obj
		switch or.Type {
		case sys.ObjRegion:
			o = &obj.Region{Header: obj.Header{Type: or.Type}, R: regions[or.RegionIdx]}
		case sys.ObjMapping:
			om := &obj.Mapping{Header: obj.Header{Type: or.Type}, Dst: s}
			if or.MappingIdx >= 0 {
				om.M = mappings[or.MappingIdx]
			}
			o = om
		default:
			var e sys.Errno
			o, e = obj.New(or.Type)
			if e != sys.EOK {
				return nil, nil, fmt.Errorf("checkpoint: recreate %v: %v", or.Type, e)
			}
		}
		o.Hdr().Name = or.Name
		if e := s.Insert(or.VA, o); e != sys.EOK {
			return nil, nil, fmt.Errorf("checkpoint: rebind %v at %#x: %v", or.Type, or.VA, e)
		}
		created[or.VA] = o
	}

	// Threads: create, then apply states.
	idMap := map[uint32]*obj.Thread{}
	var threads []*obj.Thread
	for _, tr := range img.Threads {
		t := k2.NewThread(s, int(tr.State[core.TSPriority]))
		// Rebind at the original handle VA so handle-bearing code
		// (thread_wait, interrupts between threads) still works.
		if t.VA != tr.HandleVA {
			s.Remove(t.VA)
			t.VA = 0
			if e := s.Insert(tr.HandleVA, t); e != sys.EOK {
				return nil, nil, fmt.Errorf("checkpoint: rebind thread at %#x: %v", tr.HandleVA, e)
			}
		}
		t.HomeCPU = tr.HomeCPU % k2.NumCPUs()
		idMap[tr.OldID] = t
		threads = append(threads, t)
	}
	for i, tr := range img.Threads {
		// Old peer IDs must not alias unrelated threads on the target
		// kernel; the relink pass below reconnects image-internal
		// pairs explicitly.
		st := tr.State
		st[core.TSIPCPhase] = 0
		st[core.TSIPCPeer] = 0
		st[core.TSIPCSrvPhase] = 0
		st[core.TSIPCSrvPeer] = 0
		k2.ApplyThreadState(threads[i], st)
	}

	// Objects, second pass: internal linkage and type-specific state.
	for _, or := range img.Objects {
		o := created[or.VA]
		switch x := o.(type) {
		case *obj.Mutex:
			x.Locked = or.MutexLocked
			if t, ok := idMap[or.MutexHolderID]; ok {
				x.Holder = t
			}
		case *obj.Ref:
			if or.RefValid {
				if target, ok := created[or.RefTargetVA]; ok {
					x.Target = target
					target.Hdr().Refs++
				} else if t := s.At(or.RefTargetVA); t != nil {
					x.Target = t
					t.Hdr().Refs++
				}
			}
		case *obj.Portset:
			for _, pva := range or.PortsetPorts {
				if p, ok := created[pva].(*obj.Port); ok {
					x.AddPort(p)
				}
			}
		}
	}
	// Pager linkage.
	for i, rr := range img.Regions {
		if rr.PagerPortVA == 0 {
			continue
		}
		if p, ok := created[rr.PagerPortVA].(*obj.Port); ok {
			regions[i].Pager = p
			// Find the region object wrapping regions[i] for the
			// port's fault linkage.
			for _, or := range img.Objects {
				if or.Type == sys.ObjRegion && or.RegionIdx == i {
					p.FaultRegion = created[or.VA].(*obj.Region)
				}
			}
		}
	}

	// IPC relink: reconnect pairs captured together; halves whose peer
	// is outside the image lose their connection (the restarted
	// operation observes ENOTCONN, a clean, documented outcome).
	for i, tr := range img.Threads {
		if tr.CliPhase != obj.IPCIdle {
			if peer, ok := idMap[tr.CliPeerID]; ok {
				threads[i].IPCClient.Phase = tr.CliPhase
				threads[i].IPCClient.Peer = peer
			}
		}
		if tr.SrvPhase != obj.IPCIdle {
			if peer, ok := idMap[tr.SrvPeerID]; ok {
				threads[i].IPCServer.Phase = tr.SrvPhase
				threads[i].IPCServer.Peer = peer
			}
		}
	}
	return s, threads, nil
}

// StartAll resumes restored threads. Threads whose captured control word
// had the stopped bit set stay stopped (they were suspended at capture
// time and should remain so).
func StartAll(k2 *core.Kernel, img *Image, threads []*obj.Thread) {
	for i, t := range threads {
		if img.Threads[i].State[core.TSCtl]&1 != 0 {
			continue
		}
		k2.StartThread(t)
	}
}

// Migrate captures space s from k1, destroys it there, and restores it
// onto k2, starting its threads — transparent process migration as an
// ordinary user-level operation (paper §1).
func Migrate(k1 *core.Kernel, s *obj.Space, k2 *core.Kernel) (*obj.Space, []*obj.Thread, error) {
	img, err := Capture(k1, s)
	if err != nil {
		return nil, nil, err
	}
	for _, t := range append([]*obj.Thread(nil), s.Threads...) {
		k1.DestroyThread(t)
	}
	s.Dead = true
	s2, threads, err := Restore(k2, img)
	if err != nil {
		return nil, nil, err
	}
	StartAll(k2, img, threads)
	return s2, threads, nil
}
