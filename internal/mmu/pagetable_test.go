package mmu

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// TestPageTableMatchesMapOracle drives an address space's page table
// through the AddrSpace operations that touch it — install,
// overwrite, FlushPage, FlushRange, armTrackRange, writeProtectPage —
// against the representation it replaced, a map from vpn to pte. After
// every step the table must agree with the map on every interesting vpn,
// on PTEs(), and a walk over the whole space and over a random range
// must visit exactly the map's entries in vpn order. The vpns include the
// first and last page of the address space and both sides of block
// boundaries; ranges start and end mid-page and mid-leaf, and some end at
// the top of the address space.
func TestPageTableMatchesMapOracle(t *testing.T) {
	const top = 0xFFFFF // last vpn
	// Both sides of leaf (128-page) and middle-block (16 384-page) edges.
	edges := []uint32{0, 1, 0x7F, 0x80, 0x3FF, 0x400, 0x3FFF, 0x4000, 0x4001, 0x1234, 0xFBFFF, 0xFC000, 0xFFF7F, 0xFFF80, 0xFFFFE, top}
	frames := []*mem.Frame{{PFN: 1}, {PFN: 2}, {PFN: 3}}
	perms := []Perm{PermRead, PermRW, PermRWX}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vpns := append([]uint32(nil), edges...)
		for i := 0; i < 6; i++ {
			vpns = append(vpns, uint32(rng.Intn(top+1)))
		}
		as := NewAddrSpaceTLB(mem.NewAllocator(1), 8)
		oracle := map[uint32]pte{}

		pick := func() uint32 { return vpns[rng.Intn(len(vpns))] }
		// span returns a byte range [base, base+size) whose first and last
		// pages are drawn from vpns, with random in-page offsets.
		span := func() (base, size, first, last uint32) {
			first, last = pick(), pick()
			if first > last {
				first, last = last, first
			}
			if rng.Intn(8) == 0 {
				last = top // end at the top of the address space
			}
			base = first<<mem.PageShift | uint32(rng.Intn(mem.PageSize))
			end := last<<mem.PageShift | uint32(rng.Intn(mem.PageSize)) // inclusive
			if end < base {
				base, end = first<<mem.PageShift, last<<mem.PageShift
			}
			if end-base == 0xFFFF_FFFF {
				end-- // the whole space would need size 1<<32
			}
			return base, end - base + 1, first, last
		}
		check := func(step int, op string) {
			t.Helper()
			where := fmt.Sprintf("seed %d step %d (%s)", seed, step, op)
			if as.PTEs() != len(oracle) {
				t.Fatalf("%s: PTEs()=%d, oracle holds %d", where, as.PTEs(), len(oracle))
			}
			for _, vpn := range vpns {
				got, want := as.pt.lookup(vpn), oracle[vpn]
				if (got == nil) != (want.frame == nil) || got != nil && *got != want {
					t.Fatalf("%s: vpn %#x holds %+v, oracle %+v", where, vpn, got, want)
				}
			}
			walkFrom := func(first, last uint32) {
				t.Helper()
				n, prev := 0, int64(-1)
				as.pt.walk(first, last, func(vpn uint32, e *pte) {
					if int64(vpn) <= prev || vpn < first || vpn > last {
						t.Fatalf("%s: walk [%#x,%#x] visited %#x after %#x", where, first, last, vpn, prev)
					}
					if want, ok := oracle[vpn]; !ok || *e != want {
						t.Fatalf("%s: walk visited vpn %#x = %+v, oracle %+v", where, vpn, *e, want)
					}
					n, prev = n+1, int64(vpn)
				})
				want := 0
				for vpn := range oracle {
					if vpn >= first && vpn <= last {
						want++
					}
				}
				if n != want {
					t.Fatalf("%s: walk [%#x,%#x] visited %d entries, oracle has %d", where, first, last, n, want)
				}
			}
			walkFrom(0, top)
			_, _, first, last := span()
			walkFrom(first, last)
		}

		check(-1, "empty")
		for step := 0; step < 600; step++ {
			var op string
			switch r := rng.Intn(100); {
			case r < 40: // install, overwriting a present entry half the time
				vpn := pick()
				if rng.Intn(2) == 0 {
					for i, off := 0, rng.Intn(len(vpns)); i < len(vpns); i++ {
						if v := vpns[(off+i)%len(vpns)]; oracle[v].frame != nil {
							vpn = v
							break
						}
					}
				}
				e := pte{frame: frames[rng.Intn(len(frames))], perm: perms[rng.Intn(len(perms))], track: rng.Intn(4) == 0}
				op = fmt.Sprintf("set %#x", vpn)
				as.pt.set(vpn, e)
				oracle[vpn] = e
			case r < 55:
				vpn := pick()
				op = fmt.Sprintf("FlushPage %#x", vpn)
				as.FlushPage(vpn<<mem.PageShift | uint32(rng.Intn(mem.PageSize)))
				delete(oracle, vpn)
			case r < 75:
				base, size, first, last := span()
				op = fmt.Sprintf("FlushRange %#x+%#x", base, size)
				as.FlushRange(base, size)
				for vpn := range oracle {
					if vpn >= first && vpn <= last {
						delete(oracle, vpn)
					}
				}
			case r < 88:
				base, size, first, last := span()
				op = fmt.Sprintf("armTrackRange %#x+%#x", base, size)
				as.armTrackRange(base, size)
				for vpn, e := range oracle {
					if vpn >= first && vpn <= last {
						e.track = true
						oracle[vpn] = e
					}
				}
			default:
				vpn := pick()
				op = fmt.Sprintf("writeProtectPage %#x", vpn)
				as.writeProtectPage(vpn<<mem.PageShift | uint32(rng.Intn(mem.PageSize)))
				if e, ok := oracle[vpn]; ok {
					e.perm &^= PermWrite
					oracle[vpn] = e
				}
			}
			check(step, op)
		}
	}
}
