package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/mem"
)

// Fields FuzzImageRestore can scribble over: every index and length an
// image or delta carries.
const (
	fzPage            = iota // Image.Regions[i].Pages[j] = v
	fzPagesLen               // len(Image.Regions[i].Pages) = v (grown with copies of entry 0)
	fzRegionSize             // Image.Regions[i].Size = v
	fzMapRegion              // Image.Mappings[i].RegionIdx = v
	fzObjRegion              // Image.Objects[i].RegionIdx = v
	fzObjMapping             // Image.Objects[i].MappingIdx = v
	fzFrameLen               // len(Image.Frames[i].Data) = v
	fzFramesLen              // len(Image.Frames) = v (truncation only)
	fzHomeCPU                // Image.Threads[i].HomeCPU = v
	fzRef                    // Delta.Regions[i].Pages[j] = {Delta: v odd, Idx: v >> 1}
	fzRefsLen                // len(Delta.Regions[i].Pages) = v
	fzDeltaFrameLen          // len(Delta.Frames[i].Data) = v
	fzDeltaFramesLen         // len(Delta.Frames) = v (truncation only)
	fzParentFramesLen        // len(parent.Frames) = v (truncation only)
	fzFields
)

// fzEdit encodes one scribble: field, which record (i), which entry (j),
// and the value.
func fzEdit(field byte, i, j uint16, v int32) []byte {
	b := []byte{field}
	b = binary.LittleEndian.AppendUint16(b, i)
	b = binary.LittleEndian.AppendUint16(b, j)
	return binary.LittleEndian.AppendUint32(b, uint32(v))
}

// fzResize returns p with its length set to v mod limit, zero-extended if
// that is longer — on a copy, never through p's spare capacity, which the
// fixture shares between executions.
func fzResize[T any](p []T, v int32, limit int) []T {
	n := int(uint32(v) % uint32(limit))
	if n <= len(p) {
		return p[:n]
	}
	return append(p[:len(p):len(p)], make([]T, n-len(p))...)
}

// FuzzImageRestore takes a valid captured image, its parent and the delta
// between them, lets the input overwrite their index and length fields
// with arbitrary values, and feeds the result to Apply and Restore on a
// kernel with little physical memory. Neither may panic the host — a
// malformed image is an error — and the destination allocator never
// exceeds its limit. A restored space is then written at every mapped
// page, and the fixture's frame records, whose pages the restored
// frames borrow, must still hold the bytes they were captured with.
func FuzzImageRestore(f *testing.F) {
	// The reproduced host faults, one edit each (see
	// TestRestoreRejectsHostileImage for the same cases spelled out).
	f.Add(fzEdit(fzPage, 0, 0, 99))
	f.Add(fzEdit(fzMapRegion, 0, 0, 1000))
	f.Add(fzEdit(fzMapRegion, 1, 0, -1))
	f.Add(fzEdit(fzObjRegion, 0, 0, -1)) // some record i is the region object: see the sweep below
	f.Add(fzEdit(fzObjMapping, 0, 0, 77))
	f.Add(fzEdit(fzFrameLen, 0, 0, 100))
	f.Add(fzEdit(fzFrameLen, 1, 0, 2*mem.PageSize))
	f.Add(fzEdit(fzPagesLen, 0, 0, 4096))
	f.Add(fzEdit(fzRegionSize, 0, 0, 0))
	f.Add(fzEdit(fzRegionSize, 1, 0, -1))
	f.Add(fzEdit(fzRef, 0, 0, 2*5000))
	f.Add(fzEdit(fzRef, 0, 1, 2*5000+1))
	f.Add(fzEdit(fzFramesLen, 0, 0, 1))
	f.Add(fzEdit(fzDeltaFramesLen, 0, 0, 0))
	f.Add(fzEdit(fzParentFramesLen, 0, 0, 2))
	f.Add(fzEdit(fzHomeCPU, 0, 0, -3))
	f.Add([]byte{}) // the untouched fixture restores fine
	var sweep []byte
	for i := uint16(0); i < 8; i++ {
		sweep = append(sweep, fzEdit(fzObjRegion, i, 0, -1)...)
	}
	f.Add(sweep)

	// The fixture: the two-worker space, a warm memory baseline, and a
	// full-stop delta against it — so the delta carries structure, its own
	// frames and parent references, and its materialized image is a
	// complete checkpoint.
	k := core.New(core.Config{Model: core.ModelProcess})
	s, _ := buildWorkload(f, k, 10)
	k.RunFor(50_000)
	parent0, err := checkpoint.SnapshotMemory(k, s)
	if err != nil {
		f.Fatal(err)
	}
	k.RunFor(100_000)
	delta0, img0, err := checkpoint.CaptureDelta(k, s, parent0)
	if err != nil {
		f.Fatal(err)
	}
	if len(delta0.Frames) == 0 || delta0.CleanFrames == 0 {
		f.Fatalf("fixture delta has %d own frames and %d parent references; want both", len(delta0.Frames), delta0.CleanFrames)
	}
	captured := recordCopies(parent0.Frames, delta0.Frames, img0.Frames)

	f.Fuzz(func(t *testing.T, script []byte) {
		// Deep-copy everything an edit can reach; page bytes stay shared
		// (restored frames copy them before writing).
		img, d, parent := *img0, *delta0, *parent0
		img.Frames = append([]checkpoint.FrameRecord(nil), img.Frames...)
		img.Mappings = append([]checkpoint.MappingRecord(nil), img.Mappings...)
		img.Objects = append([]checkpoint.ObjectRecord(nil), img.Objects...)
		img.Threads = append([]checkpoint.ThreadRecord(nil), img.Threads...)
		img.Regions = append([]checkpoint.RegionRecord(nil), img.Regions...)
		for i := range img.Regions {
			img.Regions[i].Pages = append([]int32(nil), img.Regions[i].Pages...)
		}
		d.Frames = append([]checkpoint.FrameRecord(nil), d.Frames...)
		d.Regions = append([]checkpoint.DeltaRegionRecord(nil), d.Regions...)
		for i := range d.Regions {
			d.Regions[i].Pages = append([]checkpoint.PageRef(nil), d.Regions[i].Pages...)
		}

		pristine := len(script) < 9 // no edit: the fixture itself must restore
		for ; len(script) >= 9; script = script[9:] {
			i := int(binary.LittleEndian.Uint16(script[1:]))
			j := int(binary.LittleEndian.Uint16(script[3:]))
			v := int32(binary.LittleEndian.Uint32(script[5:]))
			pick := func(n int) bool { // i, reduced into a slice of n records
				if n == 0 {
					return false
				}
				i %= n
				return true
			}
			switch script[0] % fzFields {
			case fzPage:
				if pick(len(img.Regions)) && len(img.Regions[i].Pages) > 0 {
					img.Regions[i].Pages[j%len(img.Regions[i].Pages)] = v
				}
			case fzPagesLen:
				if pick(len(img.Regions)) {
					img.Regions[i].Pages = fzResize(img.Regions[i].Pages, v, 8192)
				}
			case fzRegionSize:
				if pick(len(img.Regions)) {
					img.Regions[i].Size = uint32(v)
				}
			case fzMapRegion:
				if pick(len(img.Mappings)) {
					img.Mappings[i].RegionIdx = int(v)
				}
			case fzObjRegion:
				if pick(len(img.Objects)) {
					img.Objects[i].RegionIdx = int(v)
				}
			case fzObjMapping:
				if pick(len(img.Objects)) {
					img.Objects[i].MappingIdx = int(v)
				}
			case fzFrameLen:
				if pick(len(img.Frames)) {
					img.Frames[i].Data = fzResize(img.Frames[i].Data, v, 3*mem.PageSize)
				}
			case fzFramesLen:
				img.Frames = fzResize(img.Frames, v, len(img.Frames)+1)
			case fzHomeCPU:
				if pick(len(img.Threads)) {
					img.Threads[i].HomeCPU = int(v)
				}
			case fzRef:
				if pick(len(d.Regions)) && len(d.Regions[i].Pages) > 0 {
					d.Regions[i].Pages[j%len(d.Regions[i].Pages)] = checkpoint.PageRef{Delta: v&1 != 0, Idx: v >> 1}
				}
			case fzRefsLen:
				if pick(len(d.Regions)) {
					d.Regions[i].Pages = fzResize(d.Regions[i].Pages, v, 8192)
				}
			case fzDeltaFrameLen:
				if pick(len(d.Frames)) {
					d.Frames[i].Data = fzResize(d.Frames[i].Data, v, 3*mem.PageSize)
				}
			case fzDeltaFramesLen:
				d.Frames = fzResize(d.Frames, v, len(d.Frames)+1)
			case fzParentFramesLen:
				parent.Frames = fzResize(parent.Frames, v, len(parent.Frames)+1)
			}
		}

		check := func(what string, im *checkpoint.Image) {
			k2 := core.New(core.Config{Model: core.ModelProcess, PhysFrames: 48})
			defer k2.Shutdown()
			s2, threads, err := checkpoint.Restore(k2, im)
			if k2.Alloc.InUse() > k2.Alloc.Limit() {
				t.Fatalf("%s: destination holds %d frames of %d", what, k2.Alloc.InUse(), k2.Alloc.Limit())
			}
			if pristine && err != nil {
				t.Fatalf("%s: the untouched fixture does not restore: %v", what, err)
			}
			if err == nil && (s2 == nil || len(threads) != len(im.Threads)) {
				t.Fatalf("%s: Restore succeeded with space %v and %d of %d threads", what, s2, len(threads), len(im.Threads))
			}
			if err != nil {
				return
			}
			for _, m := range s2.AS.Mappings() {
				for off := uint32(0); off < m.Size; off += mem.PageSize {
					k2.WriteMem(s2, m.Base+off, []byte{0xA5, 0x5A}) // read-only, COW or out of memory: an error, and nothing written
				}
			}
			for i, got := range recordCopies(parent0.Frames, delta0.Frames, img0.Frames) {
				if !bytes.Equal(got, captured[i]) {
					t.Fatalf("%s: writing the restored space changed frame record %d", what, i)
				}
			}
		}
		check("scribbled image", &img)
		if applied, err := d.Apply(&parent); err == nil {
			check("applied scribbled delta", applied)
		}
		if applied, err := d.Apply(nil); err == nil {
			check("scribbled delta applied without a parent", applied)
		}
	})
}
