package core_test

// Threaded-code tier equivalence: the fused superinstruction blocks are
// a simulator-side optimization, so they must be invisible to everything
// but wall-clock time. This is the strictest invariant in the repo —
// bit-identical memory, Stats, and final virtual clock with the tier on
// vs off — checked across the full configuration matrix.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestThreadedCodeEquivalence pins memory, Stats, and the clock
// bit-identical with Config.DisableThreadedCode off vs on, across the
// five paper configurations × NumCPUs {1,2,4} × both lock models, and
// guards against vacuous passes by requiring the fused tier to have
// actually executed blocks somewhere in the matrix.
func TestThreadedCodeEquivalence(t *testing.T) {
	seeds := []int64{1, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	totalHits := uint64(0)
	for _, base := range core.Configurations() {
		for _, ncpu := range []int{1, 2, 4} {
			for _, lm := range lockModels {
				cfg := base
				cfg.NumCPUs = ncpu
				cfg.LockModel = lm
				t.Run(fmt.Sprintf("%s/cpus=%d/%s", base.Name(), ncpu, lm), func(t *testing.T) {
					for _, seed := range seeds {
						onMem, onK := runSeed(t, cfg, seed)
						off := cfg
						off.DisableThreadedCode = true
						offMem, offK := runSeed(t, off, seed)
						if !bytes.Equal(onMem, offMem) {
							t.Fatalf("seed %d: observable memory differs with threaded code on vs off", seed)
						}
						if onK.Clock.Now() != offK.Clock.Now() {
							t.Fatalf("seed %d: virtual time differs: on=%d off=%d",
								seed, onK.Clock.Now(), offK.Clock.Now())
						}
						if !reflect.DeepEqual(onK.Stats(), offK.Stats()) {
							t.Fatalf("seed %d: Stats differ with threaded code on vs off:\non:  %+v\noff: %+v",
								seed, onK.Stats(), offK.Stats())
						}
						totalHits += onK.ExecStats().BlockHits
						if es := offK.ExecStats(); es.BlockHits != 0 || es.BlocksBuilt != 0 {
							t.Fatalf("seed %d: disabled run executed fused blocks: %+v", seed, es)
						}
					}
				})
			}
		}
	}
	if totalHits == 0 {
		t.Fatal("no fused block ran anywhere in the matrix; the test is vacuous")
	}
}
