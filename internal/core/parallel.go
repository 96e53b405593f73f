package core

import (
	"sync"

	"repro/internal/obj"
	"repro/internal/profile"
)

// ParallelHost execution (Config.ParallelHost): one host goroutine per
// simulated CPU, giving real host parallelism for the user-mode batches.
//
// The only code that runs outside a kernel section is cpu.StepN on a
// space's memory, guarded by that space's StepMu (exec.go stepUser).
// Threads are pinned to their space's home CPU (no stealing), so one
// space's threads never step concurrently. The gate that serializes
// everything else is the same for both lock models:
//
//   - shards[i]   per-CPU gate shard. Owns CPU i's run queue, resched
//     flag, and mailbox application. Only CPU i's goroutine takes its own
//     shard; remote CPUs never do.
//   - kmu         the shared kernel mutex. Every kernel section — object
//     and IPC state, clock reads/advances, stats and profile charging,
//     k.cur — runs under kmu. What sharding buys is that the per-CPU hot
//     loop (mailbox drain, local queue pick) and the user-mode batches
//     stay off the shared mutex entirely.
//   - qmu[i]      leaf lock on CPU i's mailbox. Cross-CPU operations are
//     an ordered two-phase protocol: the initiating CPU posts the
//     operation under qmu[i] (phase one), and the owner applies it from
//     its loop under shards[i] (phase two). Remote wakes, removals, and
//     resched kicks (the IPI analogue) all travel this way, so no CPU
//     ever touches another CPU's queue or flags directly.
//   - p.mu        idle bookkeeping (idle count, done flag, the cond).
//
// Lock order: shards[self] → kmu → p.mu → qmu[any]. Each is only ever
// taken with the earlier ones (or none) held, so the order is total and
// deadlock-free; qmu and p.mu are leaves with respect to each other
// (wakeIdlers takes p.mu alone, mail posts take qmu alone).
//
// Requires the interrupt execution model: each CPU goroutine is exactly
// the paper's one-kernel-stack-per-processor, and blocking unwinds back to
// the CPU loop instead of parking a baton-passing goroutine. The
// deterministic-timeline guarantee is waived in this mode (wall-clock
// interleaving decides the schedule); everything else — correctness,
// stats, final memory state per workload — still holds, and the whole mode
// must pass `go test -race`.
type parState struct {
	mu   sync.Mutex
	cond *sync.Cond
	idle int
	done bool

	shards []sync.Mutex
	kmu    sync.Mutex
	qmu    []sync.Mutex
	mail   []cpuMail
}

// mailOp is one posted cross-CPU operation: a remote wake (enqueue on the
// owner's queue) or a remote removal. Kept in one ordered list so a
// wake+drop or drop+wake pair applies in the order it was posted.
type mailOp struct {
	t    *obj.Thread
	drop bool
}

// cpuMail is one CPU's mailbox. ops/kicked/stamp are guarded by the
// owner's qmu; spare is the owner's drained-buffer scratch (owner-only,
// swapped in under qmu so steady-state drains never allocate).
type cpuMail struct {
	ops    []mailOp
	kicked bool
	stamp  uint64 // kicker's clock at the first pending kick
	spare  []mailOp
}

// newParState builds the gate. It is created once, in New, for any
// ParallelHost kernel with more than one CPU — not per run — so
// observation snapshots (Kernel.StatsInto, Kernel.ProfileSnapshot) can
// take kmu and read live state race-free: all snapshot-visible state —
// per-CPU stats shards, profile shards, clocks — is written under kmu, so
// it alone gives a consistent cut without stalling the per-CPU shards.
func newParState(ncpus int) *parState {
	p := &parState{
		shards: make([]sync.Mutex, ncpus),
		qmu:    make([]sync.Mutex, ncpus),
		mail:   make([]cpuMail, ncpus),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// gateLock enters a kernel section on CPU c: takes kmu and installs c as
// the acting CPU. k.cur is only meaningful while kmu is held.
func (k *Kernel) gateLock(c *CPU) {
	k.par.kmu.Lock()
	k.cur = c
}

// gateUnlock leaves a kernel section. The caller must re-enter with
// gateLock before touching any kernel state again. The caller's own gate
// shard stays held across the unlock (it is owner-only; releasing it
// would buy nothing and cost a reacquire).
func (k *Kernel) gateUnlock() { k.par.kmu.Unlock() }

// wakeIdlers pokes every CPU parked on the idle cond. Callers hold kmu
// (or less), so take p.mu for the broadcast (kmu → p.mu is in-order).
func (p *parState) wakeIdlers() {
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *parState) isDone() bool {
	p.mu.Lock()
	d := p.done
	p.mu.Unlock()
	return d
}

func (p *parState) setDone() {
	p.mu.Lock()
	p.done = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// mailPostWake posts a remote enqueue of t to its home CPU's mailbox
// (phase one of the two-phase cross-CPU wake). The broadcast covers the
// case where the owner is already parked idle: a parked CPU always has an
// empty mailbox (it re-checks before waiting), so the post + broadcast
// pair cannot be missed.
func (k *Kernel) mailPostWake(t *obj.Thread) {
	p := k.par
	home := t.HomeCPU
	p.qmu[home].Lock()
	p.mail[home].ops = append(p.mail[home].ops, mailOp{t: t})
	p.qmu[home].Unlock()
	p.wakeIdlers()
}

// mailPostDrop posts a remote queue removal of t to its home CPU's
// mailbox. Until the owner drains it the entry sits stale in the queue;
// Pick's runnable check skips it, exactly like a thread that blocked
// while queued on a deterministic kernel.
func (k *Kernel) mailPostDrop(t *obj.Thread) {
	p := k.par
	home := t.HomeCPU
	p.qmu[home].Lock()
	p.mail[home].ops = append(p.mail[home].ops, mailOp{t: t, drop: true})
	p.qmu[home].Unlock()
	p.wakeIdlers()
}

// mailPostKick posts the IPI analogue: the owner sets its own resched
// flag when it drains. The kicker's clock is stamped here (under kmu) so
// the preempt-latency histogram still measures wake-to-dispatch across
// CPUs, as in the deterministic path.
func (k *Kernel) mailPostKick(target *CPU) {
	p := k.par
	p.qmu[target.id].Lock()
	if !p.mail[target.id].kicked {
		p.mail[target.id].kicked = true
		p.mail[target.id].stamp = k.cur.clk.Now()
	}
	p.qmu[target.id].Unlock()
	p.wakeIdlers()
}

// mailPending reports whether c's mailbox holds undrained operations.
// Used by the idle path (under p.mu) and the quiescence check.
func (k *Kernel) mailPending(id int) bool {
	p := k.par
	p.qmu[id].Lock()
	pending := len(p.mail[id].ops) > 0 || p.mail[id].kicked
	p.qmu[id].Unlock()
	return pending
}

// runParallel drives the CPUs on one host goroutine each until stop()
// reports true or the system is quiescent. Mailboxes persist across runs:
// a stop() that lands between a post and its drain leaves the operation
// pending, and the next run's first drain applies it.
func (k *Kernel) runParallel(stop func() bool) {
	p := k.par // created in New; lives across runs (see newParState)
	p.mu.Lock()
	p.done = false
	p.idle = 0
	p.mu.Unlock()
	var wg sync.WaitGroup
	for _, c := range k.cpus {
		wg.Add(1)
		go func(c *CPU) {
			defer wg.Done()
			k.cpuLoopSharded(c, stop)
		}(c)
	}
	wg.Wait()
	k.cur = k.cpus[0]
}

// cpuLoopSharded is one CPU's scheduler loop. Each iteration: take the
// own shard, apply the mailbox, then enter a kernel section (kmu) only
// for the decision and dispatch. A kicked resched flag posted mid-batch
// is observed at the next loop top — preemption latency in this mode is
// bounded by one user batch.
func (k *Kernel) cpuLoopSharded(c *CPU, stop func() bool) {
	p := k.par
	for {
		p.shards[c.id].Lock()
		k.drainMail(c)
		p.kmu.Lock()
		k.cur = c
		if p.isDone() {
			p.kmu.Unlock()
			p.shards[c.id].Unlock()
			return
		}
		if stop() {
			p.kmu.Unlock()
			p.shards[c.id].Unlock()
			p.setDone()
			return
		}
		if t := k.schedPick(c); t != nil {
			k.dispatch(c, t, false)
			p.kmu.Unlock()
			p.shards[c.id].Unlock()
			continue
		}
		if d, ok := c.clk.NextDeadline(); ok {
			if now := c.clk.Now(); d > now {
				c.stats.IdleCycles += d - now
				k.profCharge(c, nil, profile.PathIdle, d-now)
			}
			c.clk.AdvanceTo(d)
			p.kmu.Unlock()
			p.shards[c.id].Unlock()
			continue
		}
		p.kmu.Unlock()
		p.shards[c.id].Unlock()
		// Idle: park on the global cond. Re-check the mailbox under p.mu
		// before every wait — a post lands under qmu first and broadcasts
		// under p.mu second, so a pending post is either visible here or
		// its broadcast is still owed to us.
		p.mu.Lock()
		for {
			if p.done {
				p.mu.Unlock()
				return
			}
			if k.mailPending(c.id) {
				break
			}
			p.idle++
			if p.idle == len(k.cpus) && k.quiescentSharded() {
				p.idle--
				p.done = true
				p.cond.Broadcast()
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
			p.idle--
		}
		p.mu.Unlock()
	}
}

// quiescentSharded is the quiescence check, run by the last CPU to go
// idle while holding p.mu. With p.idle == NumCPUs every other CPU has
// released its shard and kmu and parked (or is re-acquiring p.mu inside
// Wait), and each one's state writes happened-before its idle++ under
// p.mu — so reading queues, clocks, and current here is race-free without
// taking the shards. A pending mailbox defeats quiescence: its owner was
// broadcast-woken by the post and will drain it.
func (k *Kernel) quiescentSharded() bool {
	for _, c := range k.cpus {
		if c.current != nil || k.runnableQueuedOn(c) || c.clk.Pending() > 0 || k.mailPending(c.id) {
			return false
		}
	}
	return true
}
