package experiments

import (
	"testing"

	"repro/internal/core"
)

// TestScalingSpeedup pins the multiprocessor story the experiment exists
// to tell: with the work fixed, fine-grained locking must scale (>= 1.5x
// simulated throughput at 4 CPUs) while the big kernel lock must not
// (every kernel episode serializes on the one lock), and the contention
// counters must show why.
func TestScalingSpeedup(t *testing.T) {
	rows, err := IPCScaling(DefaultScalingScale(), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	cell := func(cpus int, lm core.LockModel) ScalingRow {
		for _, r := range rows {
			if r.CPUs == cpus && r.LockModel == lm {
				return r
			}
		}
		t.Fatalf("missing cell cpus=%d lm=%v", cpus, lm)
		return ScalingRow{}
	}
	big := cell(4, core.LockBig)
	fine := cell(4, core.LockFine)
	if fine.Speedup < 1.5 {
		t.Errorf("fine-lock speedup at 4 CPUs = %.2f, want >= 1.5", fine.Speedup)
	}
	if big.Speedup >= fine.Speedup {
		t.Errorf("big-lock speedup %.2f not below fine %.2f", big.Speedup, fine.Speedup)
	}
	// The big lock's failure to scale must be attributable: its contended
	// wait time should dwarf fine's.
	var bigWait, fineWait uint64
	for i := range big.Locks {
		bigWait += big.Locks[i].WaitCycles
		fineWait += fine.Locks[i].WaitCycles
	}
	if bigWait <= fineWait {
		t.Errorf("big-lock wait cycles %d not above fine %d", bigWait, fineWait)
	}
	// Under LockBig only the big lock may move; under LockFine the big
	// lock must stay idle.
	for i, ls := range big.Locks {
		if core.LockKindNames[i] != "big" && ls.Contended != 0 {
			t.Errorf("LockBig: lock %s contended %d times", ls.Name, ls.Contended)
		}
	}
	if fine.Locks[3].Acquires != 0 {
		t.Errorf("LockFine: big lock acquired %d times", fine.Locks[3].Acquires)
	}
	// The 1-CPU cells must be lock-model-independent (no contention is
	// possible with one clock) — same frontier, speedup exactly 1.
	b1, f1 := cell(1, core.LockBig), cell(1, core.LockFine)
	if b1.Frontier != f1.Frontier {
		t.Errorf("1-CPU frontier differs by lock model: big=%d fine=%d", b1.Frontier, f1.Frontier)
	}
}
