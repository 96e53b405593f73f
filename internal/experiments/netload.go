package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/netsrv"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/stats"
)

// The network-server load experiment: a fleet of client threads hammers
// the user-mode network stack (internal/netsrv over the simulated NIC)
// with connect-send-over-receive RPCs and measures simulated throughput
// and latency percentiles. Two device/kernel optimizations carry the
// headline, each independently gated:
//
//   - NIC interrupt coalescing (Config.DisableNICCoalesce): with it off,
//     every response frame pays a full interrupt/drain/ack round.
//   - Zero-copy replies (Config.DisableZeroCopy): responses land in
//     page-aligned NIC buffers and the worker replies straight out of
//     the DMA window, so with the path on, multi-page bodies ride
//     COW-shared frames NIC ring -> server -> client; with it off, every
//     reply is a word-by-word copy at CycCopyWord.
//
// The four modes below toggle them in a 2x2; "tuned" vs "naive" at
// 64 KiB responses is the >=3x claim TestNetloadSpeedup pins. Clients
// stamp-check the first and last page of every reply against
// netsrv.ResponseStamp, so a reply that missed the share (or shared the
// wrong frame) counts as an error, and every RPC contributes exactly one
// latency sample — percentiles account for 100% of connections.

// Netload modes (the 2x2 of the two gates).
const (
	NetloadTuned      = "tuned"       // coalescing on, zero-copy on
	NetloadNoCoalesce = "no-coalesce" // zero-copy only
	NetloadNoZeroCopy = "no-zerocopy" // coalescing only
	NetloadNaive      = "naive"       // both off
)

// NetloadModes is the mode axis in presentation order.
var NetloadModes = []string{NetloadNaive, NetloadNoZeroCopy, NetloadNoCoalesce, NetloadTuned}

// NetloadCPUs is the default sweep CPU axis.
var NetloadCPUs = []int{1, 2, 4}

// NetloadScale sizes the workload.
type NetloadScale struct {
	Queues    int // NIC queues (= driver spaces, one per CPU when possible)
	Workers   int // server worker threads per queue
	Clients   int // client threads per queue
	RPCs      int // connections per client (connect/send/receive each)
	RespWords int // response body words (16384 = the 64 KiB headline)
}

// Conns is the total connection count the scale drives.
func (sc NetloadScale) Conns() int { return sc.Queues * sc.Clients * sc.RPCs }

// DefaultNetloadScale drives 1024 connections of 64 KiB responses.
func DefaultNetloadScale() NetloadScale {
	return NetloadScale{Queues: 2, Workers: 4, Clients: 16, RPCs: 32, RespWords: 16384}
}

// FastNetloadScale is the CI-smoke variant: 8 KiB responses, 24 conns.
func FastNetloadScale() NetloadScale {
	return NetloadScale{Queues: 1, Workers: 2, Clients: 4, RPCs: 6, RespWords: 2048}
}

// NetloadResult is one measured cell.
type NetloadResult struct {
	Mode      string
	CPUs      int
	LockModel core.LockModel
	Conns     int    // connections completed (== latency samples)
	Errors    int    // client-side payload stamp mismatches
	Bytes     uint64 // response payload bytes received
	ElapsedUS float64
	// MBPerVirtualS is simulated throughput: payload megabytes per
	// second of virtual time.
	MBPerVirtualS  float64
	P50, P95, P99  float64 // per-connection latency, virtual µs
	MaxUS          float64
	NIC            dev.NICCounters
	KernelCycles   uint64
	ZeroCopyShares uint64
}

// NetloadReport is the full experiment: the 2x2 mode comparison at one
// CPU under the big lock, plus the tuned-mode CPUs x lock-model sweep.
type NetloadReport struct {
	Scale   NetloadScale
	Modes   []NetloadResult
	Sweep   []NetloadResult
	Speedup float64 // tuned / naive simulated throughput
}

// Client-space guest layout: per-client code blocks, a scratch slot
// (request words, start time, error count), a latency-sample array, and
// a page-aligned receive buffer — page-aligned so multi-page replies are
// zero-copy eligible on the client side too.
const (
	nlCode = 0x0001_0000 // + i*0x1000
	nlData = 0x0004_0000 // + i*64: req@0, t0@16, err@20
	nlSamp = 0x0008_0000 // + i*RPCs*4: per-RPC latency, µs
	nlBuf  = 0x0020_0000 // + i*bufPages*PageSize
)

// netloadClientProgram builds client i's loop: RPCs iterations of
// stamp request -> clock_get -> connect/send-over/receive -> clock_get,
// store the latency sample, verify the response stamps, halt. The loop
// counter lives in R6 (the only register syscalls preserve).
func netloadClientProgram(i int, conn, refVA uint32, sc NetloadScale, bufPages int) *prog.Builder {
	slot := uint32(nlData + i*64)
	t0W := slot + 16
	errW := slot + 20
	samp := uint32(nlSamp + i*sc.RPCs*4)
	rbuf := uint32(nlBuf + i*bufPages*int(mem.PageSize))
	lastPage := uint32((sc.RespWords*4 - 1) / int(mem.PageSize))

	// checkStamp verifies the response word at the top of page p:
	// netsrv.ResponseStamp(conn, seq, p) with seq in R6.
	b := prog.New(uint32(nlCode + i*0x1000))
	checkStamp := func(p uint32, ok string) {
		b.Movi(1, rbuf+p*mem.PageSize).Ld(2, 1, 0).
			Movi(3, 255).And(3, 6, 3).
			Movi(4, 8).Shl(3, 3, 4).
			Movi(4, netsrv.ResponseStamp(conn, 0, p)).Add(3, 3, 4).
			Beq(2, 3, ok).
			Movi(1, errW).Ld(2, 1, 0).Addi(2, 2, 1).St(1, 0, 2).
			Label(ok)
	}

	b.Movi(6, 0)
	b.Label("loop").
		Movi(1, slot).Movi(2, conn).St(1, 0, 2).St(1, 4, 6).
		Movi(2, uint32(sc.RespWords)).St(1, 8, 2)
	b.ClockGet().Movi(2, t0W).St(2, 0, 1)
	b.IPCClientConnectSendOverReceive(slot, 3, refVA, rbuf, uint32(sc.RespWords)).
		IPCClientDisconnect()
	b.ClockGet().
		Movi(2, t0W).Ld(3, 2, 0).Sub(4, 1, 3).
		Movi(2, 2).Shl(5, 6, 2).
		Movi(2, samp).Add(5, 5, 2).St(5, 0, 4)
	checkStamp(0, "ok0")
	if lastPage > 0 {
		checkStamp(lastPage, "ok1")
	}
	b.Addi(6, 6, 1).Movi(5, uint32(sc.RPCs)).Blt(6, 5, "loop").
		Halt()
	return b
}

// netloadCell is one run's full yield: the public result plus the
// digests the equivalence test compares and the raw latency samples.
type netloadCell struct {
	Res NetloadResult
	Lat *stats.Latency
	// PayloadDigest hashes what clients can see: final receive-buffer
	// contents and error counts. It must not depend on the interrupt
	// discipline.
	PayloadDigest uint64
	// FullDigest additionally folds in every latency sample, the
	// virtual-time frontier, and the kernel stats — the determinism
	// fingerprint for run-twice comparisons.
	FullDigest uint64
}

// runNetloadCell builds a kernel in the given mode, attaches the network
// server, drives the client fleet to completion, and harvests results.
func runNetloadCell(mode string, cpus int, lm core.LockModel, base core.Config, sc NetloadScale, parallel bool) (*netloadCell, error) {
	bufPages := (sc.RespWords*4 + int(mem.PageSize) - 1) / int(mem.PageSize)
	if bufPages < 1 {
		bufPages = 1
	}
	cfg := base
	cfg.NumCPUs = cpus
	cfg.LockModel = lm
	cfg.ParallelHost = parallel
	cfg.DisableNICCoalesce = mode == NetloadNoCoalesce || mode == NetloadNaive
	cfg.DisableZeroCopy = mode == NetloadNoZeroCopy || mode == NetloadNaive
	k := core.New(cfg)

	sv, err := netsrv.Attach(k, netsrv.Config{
		Queues: sc.Queues, Workers: sc.Workers, BufPages: bufPages,
	})
	if err != nil {
		return nil, err
	}

	scratchSz := mem.PageRound(uint32(sc.Clients * 64))
	sampSz := mem.PageRound(uint32(sc.Clients * sc.RPCs * 4))
	bufSz := uint32(sc.Clients * bufPages * int(mem.PageSize))
	var clients []*obj.Thread
	var cspaces []*obj.Space
	for q := 0; q < sc.Queues; q++ {
		cs := k.NewSpace()
		// Clients live opposite their queue when there are CPUs to
		// spare, so the wire crosses CPUs like a real stack.
		k.SetSpaceHome(cs, (q+sc.Queues)%k.NumCPUs())
		for _, m := range []struct {
			handle, va, size uint32
		}{
			{core.KObjBase + 0x900, nlData, scratchSz},
			{core.KObjBase + 0x904, nlSamp, sampSz},
			{core.KObjBase + 0x908, nlBuf, bufSz},
		} {
			r, err := k.NewBoundRegion(cs, m.handle, m.size, true)
			if err != nil {
				return nil, err
			}
			if _, err := k.MapInto(cs, r, m.va, 0, m.size, mmu.PermRW); err != nil {
				return nil, err
			}
			if err := k.Populate(cs, m.va, m.size); err != nil {
				return nil, err
			}
		}
		for i := 0; i < sc.Clients; i++ {
			refVA := sv.ClientRef(k, cs, q, i)
			conn := uint32(q*256 + i + 1)
			pb := netloadClientProgram(i, conn, refVA, sc, bufPages)
			th, err := k.SpawnProgram(cs, uint32(nlCode+i*0x1000), pb.MustAssemble(), 10)
			if err != nil {
				return nil, err
			}
			clients = append(clients, th)
		}
		cspaces = append(cspaces, cs)
	}

	k.RunUntil(func() bool {
		for _, ct := range clients {
			if !ct.Exited {
				return false
			}
		}
		return true
	})
	for i, ct := range clients {
		if !ct.Exited {
			return nil, fmt.Errorf("netload: client %d stuck (mode=%s cpus=%d lm=%v pc=%#x)",
				i, mode, cpus, lm, ct.Regs.PC)
		}
	}

	lat := &stats.Latency{}
	errs := 0
	payload := fnv.New64a()
	full := fnv.New64a()
	for _, cs := range cspaces {
		for i := 0; i < sc.Clients; i++ {
			eb, err := k.ReadMem(cs, uint32(nlData+i*64+20), 4)
			if err != nil {
				return nil, err
			}
			errs += int(binary.LittleEndian.Uint32(eb))
			payload.Write(eb)
			bb, err := k.ReadMem(cs, uint32(nlBuf+i*bufPages*int(mem.PageSize)), sc.RespWords*4)
			if err != nil {
				return nil, err
			}
			payload.Write(bb)
			sb, err := k.ReadMem(cs, uint32(nlSamp+i*sc.RPCs*4), sc.RPCs*4)
			if err != nil {
				return nil, err
			}
			for j := 0; j < sc.RPCs; j++ {
				lat.Add(float64(binary.LittleEndian.Uint32(sb[j*4:])))
			}
			full.Write(sb)
		}
	}
	st := k.Stats()
	var pd [8]byte
	binary.LittleEndian.PutUint64(pd[:], payload.Sum64())
	full.Write(pd[:])
	fmt.Fprintf(full, "|%d|%+v", k.Now(), st)

	conns := sc.Conns()
	bytes := uint64(conns) * uint64(sc.RespWords) * 4
	elapsed := clock.Micros(k.Now())
	cell := &netloadCell{
		Res: NetloadResult{
			Mode: mode, CPUs: cpus, LockModel: lm,
			Conns: conns, Errors: errs, Bytes: bytes,
			ElapsedUS:     elapsed,
			MBPerVirtualS: float64(bytes) / elapsed,
			P50:           lat.P50(), P95: lat.P95(), P99: lat.P99(),
			MaxUS:          lat.Max(),
			NIC:            sv.Counters(),
			KernelCycles:   st.KernelCycles,
			ZeroCopyShares: st.ZeroCopyShares,
		},
		Lat:           lat,
		PayloadDigest: payload.Sum64(),
		FullDigest:    full.Sum64(),
	}
	return cell, nil
}

// netloadBaseConfig is the default kernel shape for netload cells.
func netloadBaseConfig() core.Config {
	return core.Config{Model: core.ModelInterrupt, Preempt: core.PreemptPartial}
}

// NetloadCell runs a single (mode, CPUs, lock model) cell — the
// benchmark and smoke-test entry point.
func NetloadCell(mode string, cpus int, lm core.LockModel, sc NetloadScale) (NetloadResult, error) {
	cell, err := runNetloadCell(mode, cpus, lm, netloadBaseConfig(), sc, false)
	if err != nil {
		return NetloadResult{}, err
	}
	return cell.Res, nil
}

// Netload runs the full experiment: the four modes at one CPU under the
// big lock, then the tuned mode across cpusList x models.
func Netload(sc NetloadScale, cpusList []int, models []core.LockModel) (*NetloadReport, error) {
	if len(cpusList) == 0 {
		cpusList = NetloadCPUs
	}
	if len(models) == 0 {
		models = LockModels
	}
	rep := &NetloadReport{Scale: sc}
	var naive, tuned float64
	for _, mode := range NetloadModes {
		res, err := NetloadCell(mode, 1, core.LockBig, sc)
		if err != nil {
			return nil, err
		}
		rep.Modes = append(rep.Modes, res)
		switch mode {
		case NetloadNaive:
			naive = res.MBPerVirtualS
		case NetloadTuned:
			tuned = res.MBPerVirtualS
		}
	}
	if naive > 0 {
		rep.Speedup = tuned / naive
	}
	for _, lm := range models {
		for _, n := range cpusList {
			res, err := NetloadCell(NetloadTuned, n, lm, sc)
			if err != nil {
				return nil, err
			}
			rep.Sweep = append(rep.Sweep, res)
		}
	}
	return rep, nil
}

// NetloadRender formats the report: the mode 2x2 first, then the sweep.
func NetloadRender(rep *NetloadReport) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Netload: %d conns, %d KiB responses (modes at 1 CPU/big lock; then tuned sweep)",
			rep.Scale.Conns(), rep.Scale.RespWords*4/1024),
		"mode", "CPUs", "lock model", "MB/virtual-s", "p50 µs", "p95 µs", "p99 µs",
		"irqs", "coalesced", "stalls", "unshares", "zc shares", "errors")
	row := func(r NetloadResult) {
		t.Row(r.Mode, r.CPUs, r.LockModel.String(), r.MBPerVirtualS,
			r.P50, r.P95, r.P99,
			r.NIC.IRQs, r.NIC.Coalesced, r.NIC.RingFullStalls, r.NIC.Unshares,
			r.ZeroCopyShares, r.Errors)
	}
	for _, r := range rep.Modes {
		row(r)
	}
	t.Row("speedup (tuned/naive)", fmt.Sprintf("%.2fx", rep.Speedup),
		"", "", "", "", "", "", "", "", "", "", "")
	for _, r := range rep.Sweep {
		row(r)
	}
	return t
}
