package core

import (
	"testing"

	"repro/internal/prog"
)

// TestParallelHostPendingMailSurvivesStop pins the mailbox contract
// runParallel documents: an operation posted but not yet drained when a
// run stops stays pending, and the next run's first loop iteration
// applies it — before it looks at stop(). The post here is StartThread
// from host code onto a space homed on CPU 1 (k.cur is CPU 0 between
// runs), the same remote-wake path a stop() can cut mid-flight.
func TestParallelHostPendingMailSurvivesStop(t *testing.T) {
	for _, lm := range []LockModel{LockBig, LockFine} {
		k := New(Config{Model: ModelInterrupt, Preempt: PreemptPartial,
			NumCPUs: 2, LockModel: lm, ParallelHost: true})
		s := k.NewSpace()
		k.SetSpaceHome(s, 1)
		const base = 0x10000
		th, err := k.SpawnProgram(s, base, prog.New(base).Halt().MustAssemble(), 10)
		if err != nil {
			t.Fatal(err)
		}
		if !k.mailPending(1) {
			t.Fatalf("%v: remote StartThread did not post to CPU 1's mailbox", lm)
		}
		// A run that stops at once: each CPU gets exactly one iteration.
		k.RunUntil(func() bool { return true })
		if k.mailPending(1) || !k.runnableQueuedOn(k.cpus[1]) {
			t.Fatalf("%v: first iteration of the run did not apply the pending wake (pending=%v queued=%v)",
				lm, k.mailPending(1), k.runnableQueuedOn(k.cpus[1]))
		}
		k.Run()
		if !th.Exited {
			t.Fatalf("%v: thread woken through the mailbox never ran (state=%v)", lm, th.State)
		}
	}
}
