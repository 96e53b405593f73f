package experiments

import "testing"

// TestInterpreterTiers checks the experiment's own invariant (identical
// virtual cycles across all three tiers — InterpreterTiers fails
// internally otherwise) and that each workload engages the machinery it
// was built to stress: fused blocks execute on the straight-line and
// branch-heavy shapes, the self-modifying shape actually invalidates
// built blocks, and the array sweeps run as counted loops.
func TestInterpreterTiers(t *testing.T) {
	rows, err := InterpreterTiers(30_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(interpShapes) {
		t.Fatalf("want %d workloads, got %d", len(interpShapes), len(rows))
	}
	for _, r := range rows {
		if r.Cycles == 0 {
			t.Errorf("%s: zero virtual cycles; workload did not run", r.Workload)
		}
		switch r.Workload {
		case "straight-line", "branch-heavy":
			if r.Exec.BlockHits == 0 {
				t.Errorf("%s: threaded tier executed no fused blocks; test is vacuous", r.Workload)
			}
		case "self-modifying":
			if r.Exec.BlockInvalidations == 0 {
				t.Errorf("self-modifying: no block invalidations; the store is not hitting the code page")
			}
		case "byte-sweep", "word-sweep":
			if r.Exec.LoopPasses == 0 {
				t.Errorf("%s: no counted-loop pass ran; the sweep is not folded", r.Workload)
			}
		}
	}
}

// TestInterpreterTierSmoke is the CI performance smoke: on workloads
// big enough to swamp timer noise — the straight-line shape and both array
// sweeps — the fused-block tier must not be slower than the decode-cache
// tier on host time. The margin is generous (the measured gap is ~2-4x;
// we only require it not to be slower) so the assertion is robust on
// loaded CI runners while still catching a tier that silently stopped
// engaging.
func TestInterpreterTierSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("host-time measurement; skipped in -short")
	}
	type best struct{ dec, thr float64 }
	bests := map[string]*best{
		"straight-line": {1e18, 1e18},
		"byte-sweep":    {1e18, 1e18},
		"word-sweep":    {1e18, 1e18},
	}
	for trial := 0; trial < 3; trial++ {
		rows, err := InterpreterTiers(400_000)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if b := bests[r.Workload]; b != nil {
				b.dec = min(b.dec, float64(r.Host[1]))
				b.thr = min(b.thr, float64(r.Host[2]))
			}
		}
	}
	for name, b := range bests {
		if b.thr > b.dec {
			t.Errorf("%s: threaded tier slower than decode-cache tier: %.1fms vs %.1fms",
				name, b.thr/1e6, b.dec/1e6)
		}
	}
}
