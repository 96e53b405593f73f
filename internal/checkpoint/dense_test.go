package checkpoint_test

// Tests for the dense image representation: the tracking epoch that keeps
// two snapshot chains from corrupting each other, deterministic restore
// order, the allocation bound of a delta round, buffer ownership across
// Restore and the migrations, and refusal of malformed images.

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/sys"
)

// spacePages returns the frame backing every page of every mapped region
// of s, in mapping then address order, nil where absent.
func spacePages(s *obj.Space) []*mem.Frame {
	var out []*mem.Frame
	for _, m := range s.AS.Mappings() {
		if m.Base == core.KObjBase {
			continue
		}
		out = append(out, m.Region.Frames()...)
	}
	return out
}

// sameContents checks that two spaces hold the same bytes at every page.
func sameContents(t *testing.T, what string, want, got *obj.Space) {
	t.Helper()
	w, g := spacePages(want), spacePages(got)
	if len(w) != len(g) {
		t.Fatalf("%s: %d pages vs %d", what, len(g), len(w))
	}
	for i := range w {
		if (w[i] == nil) != (g[i] == nil) {
			t.Fatalf("%s: page %d present in only one space", what, i)
		}
		if w[i] != nil && !bytes.Equal(w[i].Data, g[i].Data) {
			t.Fatalf("%s: page %d differs", what, i)
		}
	}
}

// TestDeltaAgainstRearmedTrackerCapturesEverything: dirty tracking is per
// region, so an unrelated snapshot B taken between a snapshot A and a
// delta against A re-arms the tracker and throws away the marks for
// everything written between A and B. The epoch recorded in A no longer
// matches, and the delta must fall back to capturing every resident page
// rather than referencing A's now-stale frames.
func TestDeltaAgainstRearmedTrackerCapturesEverything(t *testing.T) {
	k := core.New(core.Config{Model: core.ModelProcess})
	s, _ := buildIdleWriter(t, k)
	k.RunFor(200_000)
	a, err := checkpoint.SnapshotMemory(k, s)
	if err != nil {
		t.Fatal(err)
	}
	k.RunFor(300_000) // the writer dirties its hot pages: marks A's chain depends on
	if _, err := checkpoint.SnapshotMemory(k, s); err != nil {
		t.Fatal(err) // chain B re-arms and clears them
	}
	d, img, err := checkpoint.SnapshotMemoryDelta(k, s, a)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := checkpoint.SnapshotMemory(k, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := imageMemEqual(fresh, img); err != nil {
		t.Fatalf("delta against A materialized stale memory: %v", err)
	}
	if len(d.Frames) != len(fresh.Frames) || d.CleanFrames != 0 {
		t.Fatalf("delta captured %d frames and skipped %d; the resident set is %d and nothing can be trusted clean",
			len(d.Frames), d.CleanFrames, len(fresh.Frames))
	}

	// The delta re-armed for its own image: the chain is whole again.
	k.RunFor(300_000)
	d2, img2, err := checkpoint.SnapshotMemoryDelta(k, s, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Frames) == 0 || len(d2.Frames) > 2*hotPages {
		t.Fatalf("follow-up delta holds %d frames, want about the %d hot pages", len(d2.Frames), hotPages)
	}
	full, err := checkpoint.SnapshotMemory(k, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := imageMemEqual(full, img2); err != nil {
		t.Fatalf("follow-up delta: %v", err)
	}
}

// TestRestoreIsDeterministic restores one image onto two fresh kernels:
// every page of every region must receive the same physical frame number
// on both, because Restore allocates in address order.
func TestRestoreIsDeterministic(t *testing.T) {
	k := core.New(core.Config{Model: core.ModelProcess})
	s, _ := buildIdleWriter(t, k)
	k.RunFor(200_000)
	img, err := checkpoint.Capture(k, s)
	if err != nil {
		t.Fatal(err)
	}
	var pfns [2][]uint32
	for i := range pfns {
		k2 := core.New(core.Config{Model: core.ModelProcess})
		s2, _, err := checkpoint.Restore(k2, img)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range spacePages(s2) {
			if f == nil {
				t.Fatal("fully resident space restored with a hole")
			}
			pfns[i] = append(pfns[i], f.PFN)
		}
	}
	if len(pfns[0]) < bigLen/mem.PageSize {
		t.Fatalf("only %d pages restored", len(pfns[0]))
	}
	for p := range pfns[0] {
		if pfns[0][p] != pfns[1][p] {
			t.Fatalf("page %d restored to PFN %d on one kernel and %d on the other", p, pfns[0][p], pfns[1][p])
		}
	}
}

// TestDeltaRoundAllocs bounds what one warm delta round allocates on a
// 4 MiB space with 32 hot pages: the dirty pages' bytes plus small dense
// tables — no per-page map garbage.
func TestDeltaRoundAllocs(t *testing.T) {
	const hot = 32
	k := core.New(core.Config{Model: core.ModelProcess})
	s, _ := buildWriter(t, k, hot)
	k.RunFor(200_000)
	parent, err := checkpoint.SnapshotMemory(k, s)
	if err != nil {
		t.Fatal(err)
	}
	resident := len(parent.Frames)
	for round := 0; round < 3; round++ {
		k.RunFor(300_000)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d, img, err := checkpoint.SnapshotMemoryDelta(k, s, parent)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		parent = img
		dirty := len(d.Frames)
		if dirty < hot || dirty > hot+4 {
			t.Fatalf("round %d: %d dirty frames, want the %d hot pages", round, dirty, hot)
		}
		got := m1.TotalAlloc - m0.TotalAlloc
		if limit := uint64(dirty*mem.PageSize + 96*resident); got > limit {
			t.Fatalf("round %d: delta allocated %d B for %d dirty of %d resident pages, limit %d",
				round, got, dirty, resident, limit)
		}
	}
}

// TestMigrateHandsOverBuffers: the migrations give the final image's page
// buffers to the destination instead of copying them. What the
// destination ends up with must be indistinguishable from a copying
// restore — bytes, sharing structure, allocator accounting, recycling of
// free frames, the physical-memory limit — except that nothing was copied.
func TestMigrateHandsOverBuffers(t *testing.T) {
	cfg := core.Config{Model: core.ModelProcess}

	t.Run("precopy", func(t *testing.T) {
		k1 := core.New(cfg)
		s, _ := buildIdleWriter(t, k1)
		k1.RunFor(200_000)
		k2 := core.New(cfg)
		s2, _, _, err := checkpoint.MigratePrecopy(k1, s, k2, checkpoint.MigrateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameContents(t, "destination vs frozen source", s, s2)
		owner := map[*byte]*mem.Frame{}
		for p, f := range spacePages(s2) {
			if prev, dup := owner[&f.Data[0]]; dup && prev != f {
				t.Fatalf("page %d: frames %d and %d share one backing array", p, prev.PFN, f.PFN)
			}
			owner[&f.Data[0]] = f
		}
	})

	// Migrate is Capture + Restore + StartAll, with the buffers handed
	// over. Twin sources, twin destinations whose allocators already hold
	// recycled frames: the adopting path must reuse them exactly as the
	// copying path does.
	t.Run("matches copying restore", func(t *testing.T) {
		dest := func() *core.Kernel {
			k := core.New(cfg)
			var fs []*mem.Frame
			for i := 0; i < 100; i++ {
				f, err := k.Alloc.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				f.Data[i] = 0xEE // stale bytes a recycled frame must not keep
				fs = append(fs, f)
			}
			for _, f := range fs {
				k.Alloc.Free(f)
			}
			return k
		}
		kA, kB := core.New(cfg), core.New(cfg)
		sA, vaA, vaB := buildSharedSpace(t, kA)
		sB, _, _ := buildSharedSpace(t, kB)

		kCopy := dest()
		img, err := checkpoint.Capture(kA, sA)
		if err != nil {
			t.Fatal(err)
		}
		sCopy, _, err := checkpoint.Restore(kCopy, img)
		if err != nil {
			t.Fatal(err)
		}
		kAdopt := dest()
		sAdopt, _, err := checkpoint.Migrate(kB, sB, kAdopt)
		if err != nil {
			t.Fatal(err)
		}

		sameContents(t, "adopting vs copying restore", sCopy, sAdopt)
		sameContents(t, "adopting restore vs source", sB, sAdopt)
		if kAdopt.Alloc.InUse() != kCopy.Alloc.InUse() || kAdopt.Alloc.Peak() != kCopy.Alloc.Peak() {
			t.Fatalf("adopting restore reads InUse/Peak %d/%d, copying restore %d/%d",
				kAdopt.Alloc.InUse(), kAdopt.Alloc.Peak(), kCopy.Alloc.InUse(), kCopy.Alloc.Peak())
		}
		cp, ad := spacePages(sCopy), spacePages(sAdopt)
		for p := range cp {
			if cp[p] == nil {
				continue // sameContents checked the hole is on both sides
			}
			if cp[p].PFN != ad[p].PFN || cp[p].Refs != ad[p].Refs || cp[p].Cow != ad[p].Cow {
				t.Fatalf("page %d: adopting restore got frame %+v, copying restore %+v", p, *ad[p], *cp[p])
			}
			if ad[p].PFN >= 100 {
				t.Fatalf("page %d: frame %d grown while recycled frames sat on the free list", p, ad[p].PFN)
			}
		}
		fa := sAdopt.At(vaA).(*obj.Region).R.FrameAt(0)
		fb := sAdopt.At(vaB).(*obj.Region).R.FrameAt(0)
		if fa != fb || fa.Refs != 2 || !fa.Cow {
			t.Fatalf("migrated share decayed: a=%p b=%p refs=%d cow=%v", fa, fb, fa.Refs, fa.Cow)
		}
	})

	t.Run("exhaustion", func(t *testing.T) {
		k1 := core.New(cfg)
		s, _ := buildIdleWriter(t, k1)
		k1.RunFor(200_000)
		small := cfg
		small.PhysFrames = 256 // a quarter of the space
		k2 := core.New(small)
		_, _, _, err := checkpoint.MigratePrecopy(k1, s, k2, checkpoint.MigrateOptions{})
		if !errors.Is(err, mem.ErrNoMemory) {
			t.Fatalf("migrating 4 MiB into 1 MiB: err = %v, want ErrNoMemory", err)
		}
		if k2.Alloc.InUse() > k2.Alloc.Limit() {
			t.Fatalf("destination holds %d frames of %d", k2.Alloc.InUse(), k2.Alloc.Limit())
		}
	})
}

// TestRestoreLeavesImageReusable: the exported Restore copies, so the
// image survives its restored space being written to — it can be restored
// again, and deltas chained to it keep valid frame records.
func TestRestoreLeavesImageReusable(t *testing.T) {
	cfg := core.Config{Model: core.ModelProcess}
	k := core.New(cfg)
	s, _ := buildIdleWriter(t, k)
	k.RunFor(200_000)
	img, err := checkpoint.Capture(k, s)
	if err != nil {
		t.Fatal(err)
	}

	k1 := core.New(cfg)
	s1, _, err := checkpoint.Restore(k1, img)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range spacePages(s1) {
		for i := range f.Data {
			f.Data[i] = 0xA5
		}
	}
	k2 := core.New(cfg)
	s2, _, err := checkpoint.Restore(k2, img)
	if err != nil {
		t.Fatal(err)
	}
	sameContents(t, "second restore vs captured source", s, s2)
}

// TestRestoreRejectsHostileImage: every index and length in an image is
// validated before Restore or Apply trusts it. Each of these used to
// panic the host with an index out of range or a nil dereference.
func TestRestoreRejectsHostileImage(t *testing.T) {
	page := make([]byte, mem.PageSize)
	region := checkpoint.RegionRecord{Size: mem.PageSize, Pages: []int32{0}}
	for name, img := range map[string]*checkpoint.Image{
		"page names a missing frame": {
			Regions: []checkpoint.RegionRecord{{Size: mem.PageSize, Pages: []int32{99}}},
		},
		"page table longer than the region": {
			Frames:  []checkpoint.FrameRecord{{Data: page}},
			Regions: []checkpoint.RegionRecord{{Size: mem.PageSize, Pages: []int32{0, 0}}},
		},
		"short frame": {
			Frames:  []checkpoint.FrameRecord{{Data: page[:100]}},
			Regions: []checkpoint.RegionRecord{region},
		},
		"long frame": {
			Frames:  []checkpoint.FrameRecord{{Data: make([]byte, 2*mem.PageSize)}},
			Regions: []checkpoint.RegionRecord{region},
		},
		"mapping names a missing region": {
			Mappings: []checkpoint.MappingRecord{{Base: 0x10000, Size: mem.PageSize, RegionIdx: 3}},
		},
		"mapping names a negative region": {
			Mappings: []checkpoint.MappingRecord{{Base: 0x10000, Size: mem.PageSize, RegionIdx: -1}},
		},
		"region object without a region": {
			Objects: []checkpoint.ObjectRecord{{VA: 0x20000, Type: sys.ObjRegion, RegionIdx: -1, MappingIdx: -1}},
		},
		"mapping object names a missing mapping": {
			Objects: []checkpoint.ObjectRecord{{VA: 0x20000, Type: sys.ObjMapping, RegionIdx: -1, MappingIdx: 7}},
		},
		"thread on a negative CPU": {
			Threads: []checkpoint.ThreadRecord{{HandleVA: 0x20000, HomeCPU: -2}},
		},
	} {
		k := core.New(core.Config{Model: core.ModelProcess})
		if _, _, err := checkpoint.Restore(k, img); err == nil {
			t.Errorf("%s: Restore accepted the image", name)
		}
		k.Shutdown()
	}

	parent := &checkpoint.Image{Frames: []checkpoint.FrameRecord{{Data: page}}}
	for name, d := range map[string]*checkpoint.DeltaImage{
		"parent reference out of range": {
			Regions: []checkpoint.DeltaRegionRecord{{Size: mem.PageSize, Pages: []checkpoint.PageRef{{Idx: 1}}}},
		},
		"delta reference out of range": {
			Regions: []checkpoint.DeltaRegionRecord{{Size: mem.PageSize, Pages: []checkpoint.PageRef{{Delta: true, Idx: 0}}}},
		},
		"short delta frame": {
			Frames: []checkpoint.FrameRecord{{Data: page[:1]}},
		},
	} {
		if _, err := d.Apply(parent); err == nil {
			t.Errorf("%s: Apply accepted the delta", name)
		}
	}
	if _, err := (&checkpoint.DeltaImage{
		Regions: []checkpoint.DeltaRegionRecord{{Size: mem.PageSize, Pages: []checkpoint.PageRef{{Idx: 0}}}},
	}).Apply(nil); err == nil {
		t.Error("Apply resolved a parent reference without a parent")
	}
}
