package core

import (
	"fmt"
	"testing"

	"repro/internal/obj"
	"repro/internal/sys"
)

// BenchmarkObjAt resolves a handle from the middle of the handle table
// through objAt — the charge, the presence check, the table lookup and the
// type check that every handle-taking syscall starts with — in spaces
// holding as many handles as the largest spaces of the flukeperf_ipc (22)
// and netserve (53) benchmark workloads.
func BenchmarkObjAt(b *testing.B) {
	for _, n := range []int{22, 53} {
		b.Run(fmt.Sprintf("handles=%d", n), func(b *testing.B) {
			k := New(Config{Model: ModelInterrupt})
			s := k.NewSpace()
			t := k.NewThread(s, 10)
			// Mutexes fill the eagerly mapped kernel window above the
			// space and thread handles, so every lookup hits.
			var vas []uint32
			for va := KObjBase + 0x100; s.Len() < n; va += 4 {
				m, _ := obj.New(sys.ObjMutex)
				if e := s.Insert(va, m); e != sys.EOK {
					b.Fatal(e)
				}
				vas = append(vas, va)
			}
			va := vas[len(vas)/2]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, e, kerr := k.objAt(t, va, sys.ObjMutex, false); e != sys.EOK || kerr != sys.KOK {
					b.Fatal(e, kerr)
				}
			}
		})
	}
}
