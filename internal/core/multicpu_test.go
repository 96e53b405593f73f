package core_test

// Multiprocessor-layer tests: work conservation, the scheduler
// state-access routing rule, and the ParallelHost mode (whose whole test
// value is under `go test -race`). The NumCPUs==1 bit-exactness of both
// lock models and run-to-run determinism are steps of the equivalence
// harness (internal/equiv).

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/sys"
)

// lockModels spans the pluggable locking models.
var lockModels = []core.LockModel{core.LockBig, core.LockFine}

// TestMultiCPUWorkConserving: at 4 CPUs with independent compute threads,
// more than one CPU must end up doing user work (the work-stealing path),
// and the per-CPU shards must sum to the merged Stats.
func TestMultiCPUWorkConserving(t *testing.T) {
	cfg := core.Config{Model: core.ModelInterrupt, Preempt: core.PreemptPartial,
		NumCPUs: 4, LockModel: core.LockFine}
	e := newEnv(t, cfg)
	b := prog.New(codeBase)
	b.Label("spin")
	for i := 0; i < 64; i++ {
		b.Addi(6, 6, 1)
	}
	b.Movi(4, dataBase).St(4, 0, 6).Halt()
	img := b.MustAssemble()
	if _, err := e.k.LoadImage(e.s, codeBase, img); err != nil {
		t.Fatal(err)
	}
	var threads []*obj.Thread
	for i := 0; i < 8; i++ {
		threads = append(threads, e.spawnAt(b.Addr("spin"), 10))
	}
	e.run(t, 1_000_000_000, threads...)
	busy := 0
	var sum uint64
	for i := 0; i < e.k.NumCPUs(); i++ {
		s := e.k.CPUStats(i)
		sum += s.UserCycles
		if s.UserCycles > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d of 4 CPUs executed user work", busy)
	}
	if merged := e.k.Stats(); merged.UserCycles != sum {
		t.Fatalf("shard sum %d != merged UserCycles %d", sum, merged.UserCycles)
	}
}

// TestSchedStateAccessRouting is the vet-style satellite: per-CPU
// scheduler state (run queue, resched flag, slice timer, resched stamp)
// may only be touched by cpu.go and schedops.go. Everything else must go
// through the lock-model accessors.
func TestSchedStateAccessRouting(t *testing.T) {
	allowed := map[string]bool{"cpu.go": true, "schedops.go": true}
	forbidden := regexp.MustCompile(`\.(runq|needResched|sliceTimer|reschedSince)\b`)
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || allowed[name] {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for i, line := range strings.Split(string(src), "\n") {
			if forbidden.MatchString(line) {
				t.Errorf("%s:%d: direct scheduler-state access outside cpu.go/schedops.go: %s",
					name, i+1, strings.TrimSpace(line))
			}
		}
	}
	if checked == 0 {
		t.Fatal("no source files scanned")
	}
}

// ---------------------------------------------------------------------------
// ParallelHost: one host goroutine per CPU. These tests carry their weight
// under `go test -race` (the CI race job runs the full package).

// parSpace is one space in a parallel-host environment, with its own data
// window.
type parSpace struct {
	s *obj.Space
}

func newParSpace(t *testing.T, k *core.Kernel) *parSpace {
	t.Helper()
	s := k.NewSpace()
	r, err := k.NewBoundRegion(s, kernelDataHandle(), dataSize, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.MapInto(s, r, dataBase, 0, dataSize, mmu.PermRW); err != nil {
		t.Fatal(err)
	}
	return &parSpace{s: s}
}

// bindPairIPC wires a client space to a server space's port (same handle
// VAs as bindIPC, but cross-space).
func bindPairIPC(t *testing.T, k *core.Kernel, server, client *obj.Space) {
	t.Helper()
	po, _ := obj.New(sys.ObjPort)
	pso, _ := obj.New(sys.ObjPortset)
	port := po.(*obj.Port)
	ps := pso.(*obj.Portset)
	if err := k.Bind(server, portVA, port); err != nil {
		t.Fatal(err)
	}
	if err := k.Bind(server, psVA, ps); err != nil {
		t.Fatal(err)
	}
	ps.AddPort(port)
	ref := &obj.Ref{Header: obj.Header{Type: sys.ObjRef}, Target: port}
	if err := k.Bind(client, refVA, ref); err != nil {
		t.Fatal(err)
	}
}

// parPairs is the ParallelHost workload: disjoint echo-RPC client/server
// space pairs plus one compute space, built but not yet run.
type parPairs struct {
	k            *core.Kernel
	rpcs         int
	clients      []*obj.Thread
	clientSpaces []*parSpace
	compute      *obj.Thread
}

// runParallelPairs builds `pairs` pairs, runs them under ParallelHost, and
// checks every client observed correct replies.
func runParallelPairs(t *testing.T, cfg core.Config, pairs, rpcs int) *core.Kernel {
	return runParallelPairsHook(t, cfg, pairs, rpcs, nil)
}

// runParallelPairsHook is runParallelPairs with a hook invoked just
// before the run starts; the hook returns a stop function called after
// the run completes. Snapshot-concurrency tests use it to observe the
// kernel from another goroutine while the CPU goroutines step.
func runParallelPairsHook(t *testing.T, cfg core.Config, pairs, rpcs int, hook func(*core.Kernel) func()) *core.Kernel {
	t.Helper()
	p := buildParallelPairs(t, cfg, pairs, rpcs)
	var stop func()
	if hook != nil {
		stop = hook(p.k)
	}
	p.k.RunFor(8_000_000_000)
	if stop != nil {
		stop()
	}
	p.check(t)
	return p.k
}

// parDone is where each client (and the compute thread) stores its result.
const parDone = dataBase + 0x300

func buildParallelPairs(t *testing.T, cfg core.Config, pairs, rpcs int) *parPairs {
	t.Helper()
	k := core.New(cfg)

	const (
		ebuf = dataBase + 0x3000
		sbuf = dataBase + 0x100
		rbuf = dataBase + 0x200
	)
	srv := prog.New(codeBase)
	srv.Label("echo").
		IPCWaitReceive(ebuf, 1, psVA).
		Label("echo.loop").
		Movi(4, ebuf).Ld(5, 4, 0).Add(5, 5, 5).St(4, 0, 5).
		IPCReplyWaitReceive(ebuf, 1, psVA, ebuf, 1).
		Jmp("echo.loop")
	srvImg := srv.MustAssemble()

	cli := prog.New(codeBase)
	cli.Label("cli")
	for i := 0; i < rpcs; i++ {
		v := uint32(1000*i + 7)
		cli.Movi(4, sbuf).Movi(5, v).St(4, 0, 5).
			IPCClientConnectSendOverReceive(sbuf, 1, refVA, rbuf, 1).
			IPCClientDisconnect().
			// Accumulate the replies so the final word checks them all.
			Movi(4, rbuf).Ld(5, 4, 0).Add(6, 6, 5)
	}
	cli.Movi(4, parDone).St(4, 0, 6).Halt()
	cliImg := cli.MustAssemble()

	comp := prog.New(codeBase)
	comp.Label("spin")
	for i := 0; i < 256; i++ {
		comp.Addi(6, 6, 3)
	}
	comp.Movi(4, parDone).St(4, 0, 6).Halt()
	compImg := comp.MustAssemble()

	p := &parPairs{k: k, rpcs: rpcs}
	for i := 0; i < pairs; i++ {
		se := newParSpace(t, k)
		ce := newParSpace(t, k)
		bindPairIPC(t, k, se.s, ce.s)
		if _, err := k.LoadImage(se.s, codeBase, srvImg); err != nil {
			t.Fatal(err)
		}
		if _, err := k.LoadImage(ce.s, codeBase, cliImg); err != nil {
			t.Fatal(err)
		}
		st := k.NewThread(se.s, 12)
		st.Regs.PC = srv.Addr("echo")
		k.StartThread(st)
		ct := k.NewThread(ce.s, 10)
		ct.Regs.PC = cli.Addr("cli")
		k.StartThread(ct)
		p.clients = append(p.clients, ct)
		p.clientSpaces = append(p.clientSpaces, ce)
	}
	we := newParSpace(t, k)
	if _, err := k.LoadImage(we.s, codeBase, compImg); err != nil {
		t.Fatal(err)
	}
	wt := k.NewThread(we.s, 10)
	wt.Regs.PC = comp.Addr("spin")
	k.StartThread(wt)
	p.compute = wt
	return p
}

// finished reports whether every thread of the workload has exited.
func (p *parPairs) finished() bool {
	for _, ct := range p.clients {
		if !ct.Exited {
			return false
		}
	}
	return p.compute.Exited
}

// check verifies every client exited having accumulated every reply.
func (p *parPairs) check(t *testing.T) {
	t.Helper()
	var want uint32
	for i := 0; i < p.rpcs; i++ {
		want += 2 * uint32(1000*i+7)
	}
	for i, ct := range p.clients {
		if !ct.Exited {
			t.Fatalf("pair %d: client did not exit (state=%v pc=%#x)", i, ct.State, ct.Regs.PC)
		}
		b, err := p.k.ReadMem(p.clientSpaces[i].s, parDone, 4)
		if err != nil {
			t.Fatal(err)
		}
		got := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
		if got != want {
			t.Fatalf("pair %d: reply accumulator = %d, want %d", i, got, want)
		}
	}
	if !p.compute.Exited {
		t.Fatal("compute thread did not exit")
	}
}

// TestParallelHostIPCPairs runs disjoint IPC pairs on 4 CPUs with one
// goroutine per CPU, under both lock models and both interrupt-model
// preemption settings. Race-freedom is the point: the CI race job runs
// this under -race.
func TestParallelHostIPCPairs(t *testing.T) {
	for _, pre := range []core.Preemption{core.PreemptNone, core.PreemptPartial} {
		for _, lm := range lockModels {
			pre, lm := pre, lm
			t.Run(fmt.Sprintf("preempt=%v/lockmodel=%v", pre, lm), func(t *testing.T) {
				cfg := core.Config{
					Model: core.ModelInterrupt, Preempt: pre,
					NumCPUs: 4, LockModel: lm, ParallelHost: true,
				}
				k := runParallelPairs(t, cfg, 3, 16)
				if k.NumCPUs() != 4 {
					t.Fatalf("NumCPUs = %d, want 4", k.NumCPUs())
				}
			})
		}
	}
}

// parHostConfig is the 4-CPU ParallelHost configuration the pairs tests
// share.
func parHostConfig(lm core.LockModel) core.Config {
	return core.Config{
		Model: core.ModelInterrupt, Preempt: core.PreemptPartial,
		NumCPUs: 4, LockModel: lm, ParallelHost: true,
	}
}

// TestParallelHostStopResume runs the pairs workload in many short RunFor
// slices. Cross-CPU wakes, removals and kicks travel through mailboxes
// under both lock models, so a stop() that lands between a post and its
// drain must leave the operation pending for the next run: a lost wake
// strands a client and a reply goes missing.
func TestParallelHostStopResume(t *testing.T) {
	const slice, minSlices, maxSlices = 500, 50, 100_000
	for _, lm := range lockModels {
		t.Run(fmt.Sprintf("lockmodel=%v", lm), func(t *testing.T) {
			p := buildParallelPairs(t, parHostConfig(lm), 3, 128)
			slices := 0
			for ; !p.finished() && slices < maxSlices; slices++ {
				p.k.RunFor(slice)
			}
			p.check(t)
			if slices < minSlices {
				t.Fatalf("workload finished in %d slices, want >= %d stop/resume points", slices, minSlices)
			}
		})
	}
}

// TestParallelHostLockMetricsMatchLockStats pins that the lock.* metrics
// count every virtual-lock acquire under ParallelHost: all of them happen
// inside kernel sections, so the registry sees exactly what LockStats
// does, under both lock models.
func TestParallelHostLockMetricsMatchLockStats(t *testing.T) {
	for _, lm := range lockModels {
		t.Run(fmt.Sprintf("lockmodel=%v", lm), func(t *testing.T) {
			p := buildParallelPairs(t, parHostConfig(lm), 3, 16)
			m := p.k.EnableMetrics()
			var setup uint64 // StartThread enqueues, before the registry existed
			for _, ls := range p.k.LockStats() {
				setup += ls.Acquires
			}
			p.k.RunFor(8_000_000_000)
			p.check(t)
			var fromMetrics, fromStats uint64
			for i, ls := range p.k.LockStats() {
				fromStats += ls.Acquires
				fromMetrics += m.LockAcquires[i].Value()
			}
			if fromStats -= setup; fromStats == 0 || fromMetrics != fromStats {
				t.Fatalf("lock.*.acquires sum to %d, LockStats to %d", fromMetrics, fromStats)
			}
		})
	}
}

// snapshotObserver returns a runParallelPairsHook hook that polls read —
// the Stats total and the profile total — from its own goroutine until
// the run ends, failing if either total goes backwards and counting the
// completed reads in snaps. The hook returns (and so the run starts) only
// after the observer's first complete read: whether a read happened must
// not depend on the host scheduling the observer before a short run ends.
func snapshotObserver(t *testing.T, snaps *atomic.Int64,
	read func(k *core.Kernel) (stats, prof uint64)) func(*core.Kernel) func() {
	return func(k *core.Kernel) func() {
		done := make(chan struct{})
		first := make(chan struct{})
		var lastStats, lastProf uint64
		poll := func() bool {
			stats, prof := read(k)
			if stats < lastStats {
				t.Errorf("Stats total went backwards: %d -> %d", lastStats, stats)
				return false
			}
			if prof < lastProf {
				t.Errorf("profile total went backwards: %d -> %d", lastProf, prof)
				return false
			}
			lastStats, lastProf = stats, prof
			snaps.Add(1)
			return true
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok := poll()
			close(first)
			for ok {
				select {
				case <-done:
					return
				default:
				}
				ok = poll()
			}
		}()
		<-first
		return func() { close(done); wg.Wait() }
	}
}

// checkSnapshotRun is the shared epilogue of the snapshot tests: the
// observer read at least once, and at quiescence the profiler's attributed
// cycles equal Stats().TotalCycles() exactly.
func checkSnapshotRun(t *testing.T, k *core.Kernel, snaps *atomic.Int64) {
	t.Helper()
	if snaps.Load() == 0 {
		t.Fatal("snapshot goroutine never completed a read")
	}
	attributed := k.ProfileSnapshot().TotalCycles()
	if want := k.Stats().TotalCycles(); attributed != want {
		t.Fatalf("attributed cycles %d != Stats total %d after concurrent snapshots",
			attributed, want)
	}
}

// TestParallelHostSnapshotsDuringRun reads Stats() and ProfileSnapshot()
// from a separate goroutine while the per-CPU goroutines step — the live
// observation pattern. The gate mutex makes each read a consistent
// inter-dispatch view; -race checks the synchronization, this test checks
// the semantics: snapshot totals never go backwards mid-run, and once the
// run quiesces the profiler's attributed cycles equal
// Stats().TotalCycles() exactly — the double-entry invariant holds across
// concurrent shard merges.
func TestParallelHostSnapshotsDuringRun(t *testing.T) {
	for _, lm := range lockModels {
		lm := lm
		t.Run(fmt.Sprintf("lockmodel=%v", lm), func(t *testing.T) {
			cfg := parHostConfig(lm)
			cfg.EnableProfiler = true
			var snaps atomic.Int64
			hook := snapshotObserver(t, &snaps, func(k *core.Kernel) (uint64, uint64) {
				return k.Stats().TotalCycles(), k.ProfileSnapshot().TotalCycles()
			})
			k := runParallelPairsHook(t, cfg, 3, 16, hook)
			checkSnapshotRun(t, k, &snaps)
		})
	}
}

// TestParallelHostFineSnapshotsDuringRun is the snapshot test at the
// full 64-CPU count: the ParallelHost gate is per-CPU shards plus a
// shared kernel mutex, and cross-CPU wakes travel through mailboxes.
// Snapshots must still see consistent, monotone totals, and the
// double-entry cycle invariant must hold at quiescence. Under -race, with
// 64 CPU goroutines plus a snapshot goroutine, it is the stress test for
// the shard/kmu/mailbox ordering.
func TestParallelHostFineSnapshotsDuringRun(t *testing.T) {
	cfg := core.Config{
		Model: core.ModelInterrupt, Preempt: core.PreemptPartial,
		NumCPUs: 64, LockModel: core.LockFine, ParallelHost: true,
		EnableProfiler: true,
	}
	pairs, rpcs := 12, 8
	if testing.Short() {
		pairs, rpcs = 4, 4
	}
	var snaps atomic.Int64
	var buf core.Stats
	hook := snapshotObserver(t, &snaps, func(k *core.Kernel) (uint64, uint64) {
		k.StatsInto(&buf)
		return buf.TotalCycles(), k.ProfileSnapshot().TotalCycles()
	})
	k := runParallelPairsHook(t, cfg, pairs, rpcs, hook)
	checkSnapshotRun(t, k, &snaps)
}

// TestStatsIntoAllocs pins the allocation-free Stats merge: at 64 CPUs a
// snapshot poll must reuse the caller's buffer (maps cleared, not
// reallocated) — a fresh merge per read would pay per-CPU map allocations
// at exactly the scale where polls are most frequent.
func TestStatsIntoAllocs(t *testing.T) {
	cfg := core.Config{Model: core.ModelInterrupt, Preempt: core.PreemptPartial,
		NumCPUs: 64, LockModel: core.LockFine}
	e := newEnv(t, cfg)
	b := prog.New(codeBase)
	b.Label("spin")
	for i := 0; i < 32; i++ {
		b.Addi(6, 6, 1)
	}
	b.Movi(4, dataBase).St(4, 0, 6).Halt()
	img := b.MustAssemble()
	if _, err := e.k.LoadImage(e.s, codeBase, img); err != nil {
		t.Fatal(err)
	}
	var threads []*obj.Thread
	for i := 0; i < 8; i++ {
		threads = append(threads, e.spawnAt(b.Addr("spin"), 10))
	}
	e.run(t, 1_000_000_000, threads...)
	var buf core.Stats
	e.k.StatsInto(&buf) // first call sizes the maps
	if allocs := testing.AllocsPerRun(100, func() { e.k.StatsInto(&buf) }); allocs != 0 {
		t.Fatalf("StatsInto allocates %.1f objects per call at 64 CPUs, want 0", allocs)
	}
}

// BenchmarkStatsSnapshot measures the 64-CPU snapshot poll both ways:
// the allocating Stats() and the buffer-reusing StatsInto.
func BenchmarkStatsSnapshot(b *testing.B) {
	cfg := core.Config{Model: core.ModelInterrupt, Preempt: core.PreemptPartial,
		NumCPUs: 64, LockModel: core.LockFine}
	k := core.New(cfg)
	b.Run("Stats", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = k.Stats()
		}
	})
	b.Run("StatsInto", func(b *testing.B) {
		b.ReportAllocs()
		var buf core.Stats
		k.StatsInto(&buf)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.StatsInto(&buf)
		}
	})
}

// TestLockModelIsTwoValued pins the lock-model axis: big and fine parse
// and validate, and the deleted per-subsystem model is rejected by name
// and by value with an error that says what is accepted.
func TestLockModelIsTwoValued(t *testing.T) {
	for _, lm := range lockModels {
		got, err := core.ParseLockModel(lm.String())
		if err != nil || got != lm {
			t.Fatalf("ParseLockModel(%q) = %v, %v", lm.String(), got, err)
		}
		if err := (core.Config{LockModel: lm}).Validate(); err != nil {
			t.Fatalf("LockModel %v rejected: %v", lm, err)
		}
	}
	_, err := core.ParseLockModel("persub")
	if err == nil {
		t.Fatal(`ParseLockModel("persub") accepted`)
	}
	if msg := err.Error(); !strings.Contains(msg, "big") || !strings.Contains(msg, "fine") {
		t.Fatalf("parse error %q does not name the accepted models", msg)
	}
	if err := (core.Config{LockModel: 2}).Validate(); err == nil {
		t.Fatal("Config{LockModel: 2} accepted")
	}
}

// TestParallelHostLazyFrames runs two spaces on two CPUs under
// ParallelHost. The reader's loads fault in demand-zero pages that stay
// unwritten, then it stores to each from user mode: the store misses the
// read-only TLB entry and gives the frame its own page from StepN's slow
// path, holding only the space's step lock. Meanwhile every store of the
// writer faults in a fresh page, so the kernel allocates and fills frames
// under the kernel lock. Under -race this checks that the allocator's
// slab lock covers both; the memory checks that every store landed and
// every load saw zeros.
func TestParallelHostLazyFrames(t *testing.T) {
	const (
		lazyBase    = 0x0010_0000
		readPages   = 256
		writePages  = 1024
		readerSum   = lazyBase + 4 // the reader's sum of loaded bytes, plus one
		readerLimit = lazyBase + readPages*mem.PageSize
		writerLimit = lazyBase + writePages*mem.PageSize
	)
	reader := prog.New(codeBase)
	reader.Label("reader").Movi(4, lazyBase).Movi(7, readerLimit).Movi(6, 1).
		Label("read").Ldb(5, 4, 0).Add(6, 6, 5).Addi(4, 4, mem.PageSize).Blt(4, 7, "read").
		Movi(4, lazyBase).
		Label("write").St(4, 0, 4).Addi(4, 4, mem.PageSize).Blt(4, 7, "write").
		Movi(4, readerSum).St(4, 0, 6).Halt()
	writer := prog.New(codeBase)
	writer.Label("writer").Movi(4, lazyBase).Movi(7, writerLimit).
		Label("write").St(4, 0, 4).Addi(4, 4, mem.PageSize).Blt(4, 7, "write").Halt()

	for _, lm := range lockModels {
		t.Run(fmt.Sprintf("lockmodel=%v", lm), func(t *testing.T) {
			k := core.New(core.Config{
				Model: core.ModelInterrupt, Preempt: core.PreemptPartial,
				NumCPUs: 2, LockModel: lm, ParallelHost: true,
			})
			var threads []*obj.Thread
			var spaces []*obj.Space
			for _, b := range []*prog.Builder{reader, writer} {
				s := k.NewSpace() // homes alternate: reader on CPU 0, writer on CPU 1
				r, err := k.NewBoundRegion(s, kernelDataHandle(), writePages*mem.PageSize, true)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := k.MapInto(s, r, lazyBase, 0, writePages*mem.PageSize, mmu.PermRW); err != nil {
					t.Fatal(err)
				}
				th, err := k.SpawnProgram(s, codeBase, b.MustAssemble(), 10)
				if err != nil {
					t.Fatal(err)
				}
				threads, spaces = append(threads, th), append(spaces, s)
			}
			k.RunFor(8_000_000_000)
			for i, th := range threads {
				if !th.Exited {
					t.Fatalf("thread %d did not exit (state=%v pc=%#x)", i, th.State, th.Regs.PC)
				}
			}
			word := func(s *obj.Space, va uint32) uint32 {
				b, err := k.ReadMem(s, va, 4)
				if err != nil {
					t.Fatal(err)
				}
				return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
			}
			if got := word(spaces[0], readerSum); got != 1 {
				t.Fatalf("reader's loads summed to %d, want 0 (all zeros)", got-1)
			}
			for i, pages := range []uint32{readPages, writePages} {
				for p := uint32(0); p < pages; p++ {
					if va := lazyBase + p*mem.PageSize; word(spaces[i], va) != va {
						t.Fatalf("space %d page %d: word %#x, want its own address", i, p, word(spaces[i], va))
					}
				}
			}
		})
	}
}

// TestParallelHostRequiresInterruptModel pins the config validation.
func TestParallelHostRequiresInterruptModel(t *testing.T) {
	cfg := core.Config{Model: core.ModelProcess, Preempt: core.PreemptNone,
		NumCPUs: 2, ParallelHost: true}
	if err := cfg.Validate(); err == nil {
		t.Fatal("ParallelHost with the process model was accepted")
	}
}
