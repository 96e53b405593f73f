package obj

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sys"
)

// TestHandleTableMatchesMapOracle drives a space's handle table through
// Insert, Remove, Clear, At, the ordered walk and the range walk against
// the representation it replaced: a map from VA to object, walked in
// sorted key order. A step table pins the edge cases — the lowest and
// highest word-aligned VAs, a misaligned VA, a duplicate, removing an
// absent handle, an empty range and ranges that end at 2^32 — and a seeded
// random run follows. After every step the table must agree with the map
// on Len, on At for every VA of interest, and on walks of the whole table
// and of ranges, each visiting exactly the map's keys in range, ascending.
func TestHandleTableMatchesMapOracle(t *testing.T) {
	const (
		opInsert = "insert"
		opRemove = "remove"
		opClear  = "clear"
		opAt     = "at"   // want: whether va is bound
		opWalk   = "walk" // want: the VAs bound in [va, va+n), ascending
	)
	type step struct {
		name  string
		op    string
		va, n uint32
		want  any // insert: sys.Errno; at: bool; walk: []uint32
	}
	steps := []step{
		{"empty table has no handles", opWalk, 0, 0xFFFF_FFFF, []uint32(nil)},
		{"bind the highest VA", opInsert, 0xFFFF_FFFC, 0, sys.EOK},
		{"bind VA 0", opInsert, 0, 0, sys.EOK},
		{"bind in descending order: 0x3000", opInsert, 0x3000, 0, sys.EOK},
		{"bind in descending order: 0x2000", opInsert, 0x2000, 0, sys.EOK},
		{"bind in descending order: 0x1000", opInsert, 0x1000, 0, sys.EOK},
		{"misaligned VA", opInsert, 0x1002, 0, sys.EINVAL},
		{"duplicate VA", opInsert, 0x2000, 0, sys.EBUSY},
		{"duplicate VA 0", opInsert, 0, 0, sys.EBUSY},
		{"duplicate highest VA", opInsert, 0xFFFF_FFFC, 0, sys.EBUSY},
		{"VA 0 resolves", opAt, 0, 0, true},
		{"highest VA resolves", opAt, 0xFFFF_FFFC, 0, true},
		{"unbound VA between handles", opAt, 0x1800, 0, false},
		{"misaligned VA does not resolve", opAt, 0x1002, 0, false},
		{"walk everything, ascending", opWalk, 0, 0xFFFF_FFFF, []uint32{0, 0x1000, 0x2000, 0x3000, 0xFFFF_FFFC}},
		{"empty range at a bound VA", opWalk, 0x2000, 0, []uint32(nil)},
		{"range ending at 2^32", opWalk, 0xFFFF_F000, 0x1000, []uint32{0xFFFF_FFFC}},
		{"one-word range ending at 2^32", opWalk, 0xFFFF_FFFC, 4, []uint32{0xFFFF_FFFC}},
		{"range ending just below the highest VA", opWalk, 4, 0xFFFF_FFF8, []uint32{0x1000, 0x2000, 0x3000}},
		{"range starting between handles", opWalk, 0x1004, 0x2000, []uint32{0x2000, 0x3000}},
		{"range end is exclusive", opWalk, 0x1000, 0x1000, []uint32{0x1000}},
		{"range with no handle", opWalk, 0x3004, 0x1000, []uint32(nil)},
		{"remove an absent VA", opRemove, 0x2004, 0, nil},
		{"remove a middle handle", opRemove, 0x2000, 0, nil},
		{"removed handle no longer resolves", opAt, 0x2000, 0, false},
		{"walk after removal", opWalk, 0, 0xFFFF_FFFF, []uint32{0, 0x1000, 0x3000, 0xFFFF_FFFC}},
		{"rebind the removed VA", opInsert, 0x2000, 0, sys.EOK},
		{"remove VA 0", opRemove, 0, 0, nil},
		{"remove the highest VA", opRemove, 0xFFFF_FFFC, 0, nil},
		{"walk after edge removals", opWalk, 0, 0xFFFF_FFFF, []uint32{0x1000, 0x2000, 0x3000}},
		{"clear", opClear, 0, 0, nil},
		{"cleared table has no handles", opWalk, 0, 0xFFFF_FFFF, []uint32(nil)},
		{"bind after clear", opInsert, 0x2000, 0, sys.EOK},
	}

	s := newSpace()
	oracle := map[uint32]Obj{}
	// interesting are the VAs At is checked on after every step: every VA
	// any step or the random run touches, bound or not.
	interesting := map[uint32]bool{}
	sortedKeys := func() []uint32 {
		var vas []uint32
		for va := range oracle {
			vas = append(vas, va)
		}
		slices.Sort(vas)
		return vas
	}
	walk := func(lo, n uint32) []uint32 {
		var got []uint32
		s.Walk(lo, n, func(va uint32, o Obj) {
			if o != oracle[va] {
				t.Fatalf("walk [%#x,+%#x) visited %#x = %p, oracle %p", lo, n, va, o, oracle[va])
			}
			got = append(got, va)
		})
		return got
	}
	oracleWalk := func(lo, n uint32) []uint32 {
		var want []uint32
		for _, va := range sortedKeys() {
			if va >= lo && va-lo < n {
				want = append(want, va)
			}
		}
		return want
	}
	apply := func(op string, va, n uint32) any {
		interesting[va] = true
		switch op {
		case opInsert:
			o := &Mutex{Header: Header{Type: sys.ObjMutex}}
			e := s.Insert(va, o)
			if e == sys.EOK {
				if o.VA != va || o.Owner != s {
					t.Fatalf("insert %#x: header says VA %#x owner %p", va, o.VA, o.Owner)
				}
				oracle[va] = o
			}
			return e
		case opRemove:
			s.Remove(va)
			delete(oracle, va)
			return nil
		case opClear:
			s.Clear()
			clear(oracle)
			return nil
		case opAt:
			got := s.At(va)
			if got != oracle[va] {
				t.Fatalf("At(%#x) = %p, oracle %p", va, got, oracle[va])
			}
			return got != nil
		case opWalk:
			return walk(va, n)
		}
		panic(op)
	}
	// check compares the whole table against the oracle.
	check := func(where string) {
		t.Helper()
		if s.Len() != len(oracle) {
			t.Fatalf("%s: Len()=%d, oracle holds %d", where, s.Len(), len(oracle))
		}
		for va := range interesting {
			if got := s.At(va); got != oracle[va] {
				t.Fatalf("%s: At(%#x) = %p, oracle %p", where, va, got, oracle[va])
			}
		}
		var got []uint32
		s.Each(func(va uint32, o Obj) {
			if o != oracle[va] {
				t.Fatalf("%s: Each visited %#x = %p, oracle %p", where, va, o, oracle[va])
			}
			got = append(got, va)
		})
		if want := sortedKeys(); !slices.Equal(got, want) {
			t.Fatalf("%s: Each visited %#x, want %#x", where, got, want)
		}
		if got, want := walk(0, 0xFFFF_FFFF), sortedKeys(); !slices.Equal(got, want) {
			t.Fatalf("%s: walk of everything visited %#x, want %#x", where, got, want)
		}
	}

	for _, st := range steps {
		got := apply(st.op, st.va, st.n)
		if !reflect.DeepEqual(got, st.want) {
			t.Fatalf("step %q: %s %#x (n %#x) = %v, want %v", st.name, st.op, st.va, st.n, got, st.want)
		}
		check("step " + st.name)
	}

	edges := []uint32{0, 4, 0x1000, 0x1FFC, 0x2000, 0x7FFF_FFFC, 0x8000_0000, 0xFFFF_F000, 0xFFFF_FFF8, 0xFFFF_FFFC}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s = newSpace()
		clear(oracle)
		vas := append([]uint32(nil), edges...)
		for i := 0; i < 24; i++ {
			vas = append(vas, rng.Uint32()&^3)
		}
		pick := func() uint32 {
			va := vas[rng.Intn(len(vas))]
			if rng.Intn(16) == 0 {
				va |= uint32(1 + rng.Intn(3)) // misaligned
			}
			return va
		}
		for i := 0; i < 2000; i++ {
			where := fmt.Sprintf("seed %d op %d", seed, i)
			switch r := rng.Intn(100); {
			case r < 45:
				va := pick()
				want := sys.EOK
				if _, bound := oracle[va]; va%4 != 0 {
					want = sys.EINVAL
				} else if bound {
					want = sys.EBUSY
				}
				if got := apply(opInsert, va, 0); got != want {
					t.Fatalf("%s: insert %#x = %v, want %v", where, va, got, want)
				}
			case r < 70:
				apply(opRemove, pick(), 0)
			case r < 75:
				apply(opAt, pick(), 0)
			case r < 99:
				lo, n := pick(), rng.Uint32()>>uint(rng.Intn(32))
				switch rng.Intn(4) {
				case 0:
					n = -lo // ends at 2^32
				case 1:
					n = 0
				}
				if got, want := walk(lo, n), oracleWalk(lo, n); !slices.Equal(got, want) {
					t.Fatalf("%s: walk [%#x,+%#x) visited %#x, want %#x", where, lo, n, got, want)
				}
			default:
				apply(opClear, 0, 0)
			}
			check(where)
		}
	}
}
