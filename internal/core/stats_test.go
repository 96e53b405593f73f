package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/prog"
)

// TestCPUStatsFaultMapsAreCopies: the fault maps CPUStats returns are the
// caller's. Zeroing, deleting and adding keys in them must leave the
// kernel's counters, as Stats reports them, unchanged. The test also pins
// the merged key set of a run whose only fault is a user-mode soft fault:
// such a fault rolls back no cycles, and the rollback map still holds its
// key, valued 0.
func TestCPUStatsFaultMapsAreCopies(t *testing.T) {
	e := newEnv(t, core.Config{Model: core.ModelInterrupt})
	b := prog.New(codeBase)
	b.Movi(6, dataBase).Ld(3, 6, 0).Halt()
	th := e.spawn(t, b, 10)
	e.run(t, 50_000_000, th)

	soft := core.FaultKey{Class: mmu.FaultSoft, Side: core.FaultSame}
	before := e.k.Stats()
	if got := before.FaultCount; len(got) != 1 || got[soft] != 1 {
		t.Fatalf("FaultCount = %v, want only %v: 1", got, soft)
	}
	if got := before.FaultRemedy; len(got) != 1 || got[soft] == 0 {
		t.Fatalf("FaultRemedy = %v, want only %v, non-zero", got, soft)
	}
	if got, ok := before.FaultRollback[soft]; len(before.FaultRollback) != 1 || !ok || got != 0 {
		t.Fatalf("FaultRollback = %v, want only %v: 0", before.FaultRollback, soft)
	}

	s := e.k.CPUStats(0)
	if !reflect.DeepEqual(s.FaultCount, before.FaultCount) || !reflect.DeepEqual(s.FaultRollback, before.FaultRollback) {
		t.Fatalf("one-CPU shard %v/%v differs from the merge %v/%v", s.FaultCount, s.FaultRollback, before.FaultCount, before.FaultRollback)
	}
	s.FaultCount[soft] = 0
	delete(s.FaultRemedy, soft)
	s.FaultRollback[core.FaultKey{Class: mmu.FaultHard}] = 7
	if after := e.k.Stats(); !reflect.DeepEqual(after, before) {
		t.Fatalf("writing CPUStats' maps changed Stats:\nbefore %+v\nafter  %+v", before, after)
	}
}
