package mmu

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/prog"
)

// Dirty-page tracking (incremental checkpointing): the track-bit
// mechanism must log exactly the pages whose content or backing-frame
// identity changed, while remaining invisible to everything the
// simulation can observe — no faults raised, no Faults counted, no
// change to what any access returns.

func TestDirtyTrackingLogsFirstStore(t *testing.T) {
	as := newAS(t)
	r, _ := mapZero(t, as, 0x10000, 8*mem.PageSize, PermRW)

	// Materialize every page before arming, so the baseline is "present".
	for i := uint32(0); i < 8; i++ {
		touchStore32(t, as, 0x10000+i*mem.PageSize, i)
	}
	r.StartDirtyTracking()
	if r.DirtyCount() != 0 {
		t.Fatalf("fresh tracker has %d dirty pages", r.DirtyCount())
	}

	// A read does not mark; the first store marks once; repeat stores
	// through the rewarmed TLB do not grow the set.
	if _, f := as.Load32(0x10000); f != nil {
		t.Fatalf("tracked read faulted: %v", f)
	}
	if r.DirtyCount() != 0 {
		t.Fatal("read marked a page dirty")
	}
	faultsBefore := as.Faults
	for i := 0; i < 4; i++ {
		if f := as.Store32(0x10000+2*mem.PageSize+uint32(i)*4, 7); f != nil {
			t.Fatalf("tracked store faulted: %v", f)
		}
	}
	if as.Faults != faultsBefore {
		t.Fatalf("tracked store counted %d faults", as.Faults-faultsBefore)
	}
	if !r.IsDirty(2*mem.PageSize) || r.DirtyCount() != 1 {
		t.Fatalf("dirty set after one page of stores: count=%d", r.DirtyCount())
	}

	// Re-arming clears the set and re-catches the same page.
	r.StartDirtyTracking()
	if r.DirtyCount() != 0 {
		t.Fatal("re-arm did not clear the dirty set")
	}
	if f := as.Store8(0x10000+2*mem.PageSize, 1); f != nil {
		t.Fatalf("store after re-arm faulted: %v", f)
	}
	if !r.IsDirty(2 * mem.PageSize) {
		t.Fatal("store after re-arm not logged")
	}
}

func TestDirtyTrackingCoversDirectWindow(t *testing.T) {
	as := newAS(t)
	r, _ := mapZero(t, as, 0x20000, 2*mem.PageSize, PermRW)
	touchStore32(t, as, 0x20000, 1)
	r.StartDirtyTracking()

	// An armed page must not hand out a write window (the copy would
	// bypass the log); the per-word fallback logs, and afterwards the
	// window comes back.
	if w := as.DirectWindow(0x20000, cpu.Write, 16); w != nil {
		t.Fatal("armed page handed out a write window")
	}
	if w := as.DirectWindow(0x20000, cpu.Read, 16); w == nil {
		t.Fatal("armed page refused a read window")
	}
	if f := as.Store32(0x20000, 2); f != nil {
		t.Fatalf("fallback store faulted: %v", f)
	}
	if !r.IsDirty(0) {
		t.Fatal("fallback store not logged")
	}
	if w := as.DirectWindow(0x20000, cpu.Write, 16); w == nil {
		t.Fatal("disarmed page still refuses a write window")
	}
}

func TestDirtyTrackingMarksIdentityChanges(t *testing.T) {
	as := newAS(t)
	r, _ := mapZero(t, as, 0x30000, 8*mem.PageSize, PermRW)
	as2 := newAS(t)
	r2, _ := mapZero(t, as2, 0x50000, 8*mem.PageSize, PermRW)
	for i := uint32(0); i < 4; i++ {
		touchStore32(t, as, 0x30000+i*mem.PageSize, 0xA0+i)
		touchStore32(t, as2, 0x50000+i*mem.PageSize, 0xB0+i)
	}
	r.StartDirtyTracking()
	r2.StartDirtyTracking()

	// ShareCOW: the destination page's frame changes; the source page's
	// frame becomes Cow with an extra reference. Both must be logged.
	if !ShareCOW(as, 0x30000, as2, 0x50000+mem.PageSize) {
		t.Fatal("ShareCOW refused")
	}
	if !r.IsDirty(0) {
		t.Fatal("ShareCOW source page not logged")
	}
	if !r2.IsDirty(mem.PageSize) {
		t.Fatal("ShareCOW destination page not logged")
	}

	// ResolveCOW, last-reference branch: frame identity kept, Cow marker
	// cleared — still a sharing-structure change the tracker must see.
	old := r2.Evict(mem.PageSize) // drop the receiver's slot; source holds the last ref
	as2.Allocator().Free(old)
	r.StartDirtyTracking()
	if f := as.Store32(0x30000, 9); f == nil {
		t.Fatal("store to COW page did not fault")
	}
	if cl, _ := as.Classify(0x30000, cpu.Write); cl != FaultCOW {
		t.Fatalf("class=%v, want cow", cl)
	}
	if copied, err := as.ResolveCOW(0x30000); err != nil || copied {
		t.Fatalf("ResolveCOW copied=%v err=%v, want last-ref in-place", copied, err)
	}
	if !r.IsDirty(0) {
		t.Fatal("last-ref COW resolution not logged")
	}

	// Populate / Repoint replace a frame outright.
	r.StartDirtyTracking()
	nf, _ := as.Allocator().Alloc()
	if old := r.Populate(2*mem.PageSize, nf); old != nil {
		as.Allocator().Free(old)
	}
	if !r.IsDirty(2 * mem.PageSize) {
		t.Fatal("Populate not logged")
	}
	nf2, _ := as.Allocator().Alloc()
	if old := r.Repoint(3*mem.PageSize, nf2); old != nil {
		as.Allocator().Free(old)
	}
	if !r.IsDirty(3 * mem.PageSize) {
		t.Fatal("Repoint not logged")
	}
}

// TestDirtyTrackingInvisible runs the same access sequence against a
// tracked and an untracked space and requires identical observable
// behavior: same values, same fault sequence, same Faults count. The
// second half does it for a guest loop the interpreter folds (cpu's
// counted-loop executor), whose stores try the TLB inline: a store that
// hit a slot the arming write-protected would bypass the log.
func TestDirtyTrackingInvisible(t *testing.T) {
	run := func(track bool) (vals []uint32, faults uint64) {
		as := newAS(t)
		r, _ := mapZero(t, as, 0x10000, 16*mem.PageSize, PermRW)
		for i := uint32(0); i < 16; i += 2 {
			touchStore32(t, as, 0x10000+i*mem.PageSize, i)
		}
		if track {
			r.StartDirtyTracking()
		}
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 2000; i++ {
			va := 0x10000 + uint32(rng.Intn(16*int(mem.PageSize)))&^3
			if rng.Intn(2) == 0 {
				if f := as.Store32(va, uint32(i)); f != nil {
					vals = append(vals, 0xF000_0000|va)
					if err := as.ResolveSoft(va, cpu.Write); err != nil {
						t.Fatal(err)
					}
					if f := as.Store32(va, uint32(i)); f != nil {
						t.Fatalf("store %#x still faults after resolve", va)
					}
				}
			} else {
				v, f := as.Load32(va)
				if f != nil {
					vals = append(vals, 0xE000_0000|va)
					if err := as.ResolveSoft(va, cpu.Read); err != nil {
						t.Fatal(err)
					}
					v, _ = as.Load32(va)
				}
				vals = append(vals, v)
			}
		}
		return vals, as.Faults
	}
	v1, f1 := run(false)
	v2, f2 := run(true)
	if f1 != f2 {
		t.Fatalf("Faults diverged: untracked %d, tracked %d", f1, f2)
	}
	if len(v1) != len(v2) {
		t.Fatalf("observation streams diverged in length: %d vs %d", len(v1), len(v2))
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("observation %d diverged: %#x vs %#x", i, v1[i], v2[i])
		}
	}

	const (
		pages = 8
		data  = 0x10000
		code  = 0x80000
	)
	b := prog.New(code)
	b.Movi(6, data).Movi(5, data+pages*mem.PageSize).
		Label("sweep").Ldb(3, 6, 0).Addi(3, 3, 1).Stb(6, 8, 3).
		Addi(6, 6, 16).Blt(6, 5, "sweep").
		Halt()
	img := b.MustAssemble()
	type loopRun struct {
		regs   cpu.Regs
		cycles uint64
		faults uint64
		mem    []byte
	}
	loop := func(track bool) (loopRun, cpu.ExecStats) {
		as := newAS(t)
		r, _ := mapZero(t, as, data, pages*mem.PageSize, PermRW)
		mapZero(t, as, code, mem.PageSize, PermRWX)
		for i := 0; i < len(img); i += 4 {
			touchStore32(t, as, code+uint32(i), uint32(img[i])|uint32(img[i+1])<<8|uint32(img[i+2])<<16|uint32(img[i+3])<<24)
		}
		for p := uint32(0); p < pages; p++ { // writable TLB slots before arming
			touchStore32(t, as, data+p*mem.PageSize+4, p)
		}
		var o loopRun
		for phase := 0; phase < 2; phase++ {
			if track {
				r.StartDirtyTracking()
			}
			o.regs = cpu.Regs{PC: code}
			for {
				c, _, tr := cpu.StepN(&o.regs, as, 1000)
				o.cycles += c
				if tr.Kind == cpu.TrapHalt {
					break
				}
				if tr.Kind != cpu.TrapNone {
					t.Fatalf("track=%v: trap %+v", track, tr)
				}
			}
			if track && (r.DirtyCount() != pages || !r.IsDirty(0) || !r.IsDirty((pages-1)*mem.PageSize)) {
				t.Fatalf("phase %d: %d pages logged, want each of %d once", phase, r.DirtyCount(), pages)
			}
		}
		for _, f := range r.Frames() {
			o.mem = append(o.mem, f.Data...)
		}
		o.faults = as.Faults
		return o, *as.ExecStats()
	}
	plain, _ := loop(false)
	tracked, es := loop(true)
	if es.LoopPasses == 0 {
		t.Fatalf("the sweep never ran as a folded loop: %+v", es)
	}
	if !reflect.DeepEqual(plain, tracked) {
		t.Fatalf("folded loop observable state diverged with tracking on: regs %+v vs %+v, cycles %d vs %d, Faults %d vs %d",
			plain.regs, tracked.regs, plain.cycles, tracked.cycles, plain.faults, tracked.faults)
	}
}

// TestDirtyTrackingFuzzAgainstGenerations cross-checks the dirty set
// against the frame store-generation oracle: after a random op mix,
// every page whose backing frame changed identity — or kept its identity
// but advanced its store generation — must be in the dirty set. (The
// converse does not hold: sharing-structure changes mark without a
// store, deliberately.)
func TestDirtyTrackingFuzzAgainstGenerations(t *testing.T) {
	const pages = 32
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		as := newAS(t)
		r, _ := mapZero(t, as, 0x10000, pages*mem.PageSize, PermRW)
		peer := newAS(t)
		pr, _ := mapZero(t, peer, 0x80000, pages*mem.PageSize, PermRW)
		for i := uint32(0); i < pages; i++ {
			if rng.Intn(3) > 0 {
				touchStore32(t, as, 0x10000+i*mem.PageSize, i)
			}
			touchStore32(t, peer, 0x80000+i*mem.PageSize, 0x100+i)
		}

		r.StartDirtyTracking()
		type snap struct {
			f   *mem.Frame
			gen uint64
		}
		base := make([]snap, pages)
		for i := uint32(0); i < pages; i++ {
			if f := r.FrameAt(i * mem.PageSize); f != nil {
				base[i] = snap{f, f.Gen}
			}
		}

		store := func(va uint32) {
			for {
				if f := as.Store32(va, rng.Uint32()); f == nil {
					return
				}
				cl, _ := as.Classify(va, cpu.Write)
				switch cl {
				case FaultSoft:
					if err := as.ResolveSoft(va, cpu.Write); err != nil {
						t.Fatal(err)
					}
				case FaultCOW:
					if _, err := as.ResolveCOW(va); err != nil {
						t.Fatal(err)
					}
				default:
					t.Fatalf("store %#x: fault class %v", va, cl)
				}
			}
		}
		for op := 0; op < 400; op++ {
			page := uint32(rng.Intn(pages))
			va := 0x10000 + page*mem.PageSize
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // plain store somewhere in the page
				store(va + uint32(rng.Intn(int(mem.PageSize)))&^3)
			case 5: // read (must not mark)
				as.Load32(va)
			case 6: // share one of our pages into the peer
				if r.FrameAt(page*mem.PageSize) != nil {
					ShareCOW(as, va, peer, 0x80000+page*mem.PageSize)
				}
			case 7: // share a peer page into us (replaces our frame)
				if pr.FrameAt(page*mem.PageSize) != nil {
					ShareCOW(peer, 0x80000+page*mem.PageSize, as, va)
				}
			case 8: // evict (page goes absent; later touches repopulate)
				if f := r.Evict(page * mem.PageSize); f != nil {
					as.Allocator().Free(f)
				}
			case 9: // direct-window write attempt, falling back like a copy loop
				if w := as.DirectWindow(va, cpu.Write, 8); w != nil {
					w[0]++
					// DirectWindow bumped the generation itself.
				} else {
					store(va)
				}
			}
		}

		for i := uint32(0); i < pages; i++ {
			cur := r.FrameAt(i * mem.PageSize)
			switch {
			case cur == nil:
				// Absent: nothing to capture; Populate will log any rebirth.
			case cur != base[i].f || cur.Gen != base[i].gen:
				if !r.IsDirty(i * mem.PageSize) {
					t.Fatalf("seed %d: page %d changed (frame %p→%p gen %d→%d) but is not dirty",
						seed, i, base[i].f, cur, base[i].gen, cur.Gen)
				}
			}
		}
	}
}

// TestDirtyLogMatchesMapOracle drives the bitmap + append-only log with
// random Mark/IsDirty/Start/Stop sequences (out-of-range offsets
// included) against the representation it replaced, a plain set of page
// indexes. After every step the two must agree on every page, on the
// count, and the log must hold each dirty page exactly once, in the order
// the pages were first marked. Sizes straddle the 64-page word boundary.
func TestDirtyLogMatchesMapOracle(t *testing.T) {
	for _, pages := range []uint32{1, 63, 64, 65, 1000} {
		rng := rand.New(rand.NewSource(int64(pages)))
		r := NewRegion(pages*mem.PageSize, true)
		oracle := map[uint32]struct{}{}
		var order []uint32 // first-mark order since the last Start
		tracking := false
		epoch := r.TrackEpoch()

		check := func(step int) {
			t.Helper()
			if r.DirtyCount() != len(oracle) {
				t.Fatalf("%d pages, step %d: DirtyCount=%d, oracle holds %d", pages, step, r.DirtyCount(), len(oracle))
			}
			if len(r.dirtyLog) != len(order) {
				t.Fatalf("%d pages, step %d: log %v, want %v", pages, step, r.dirtyLog, order)
			}
			for i, p := range order {
				if r.dirtyLog[i] != p {
					t.Fatalf("%d pages, step %d: log %v, want first-mark order %v", pages, step, r.dirtyLog, order)
				}
			}
			for p := uint32(0); p < pages+2; p++ {
				_, want := oracle[p]
				if got := r.IsDirty(p*mem.PageSize + uint32(rng.Intn(mem.PageSize))); got != want {
					t.Fatalf("%d pages, step %d: IsDirty(page %d)=%v, oracle says %v", pages, step, p, got, want)
				}
			}
			if r.DirtyTracking() != tracking || r.TrackEpoch() != epoch {
				t.Fatalf("%d pages, step %d: tracking=%v epoch=%d, want %v %d",
					pages, step, r.DirtyTracking(), r.TrackEpoch(), tracking, epoch)
			}
		}

		check(-1) // never armed: nothing dirty, nothing panics
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(100); {
			case op < 80: // mark, sometimes past the end
				p := uint32(rng.Intn(int(pages) + 2))
				r.MarkDirty(p*mem.PageSize + uint32(rng.Intn(mem.PageSize)))
				if _, dup := oracle[p]; tracking && p < pages && !dup {
					oracle[p] = struct{}{}
					order = append(order, p)
				}
			case op < 90:
				r.StartDirtyTracking()
				tracking = true
				epoch++
				clear(oracle)
				order = order[:0]
			default:
				r.StopDirtyTracking() // the set stays readable
				tracking = false
			}
			check(step)
		}
	}
}
