package core

import (
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/profile"
	"repro/internal/sys"
	"repro/internal/trace"
)

// copyChargeBatch is how many words of IPC copy are charged to the clock
// at a time (amortizing accounting overhead without distorting timing).
const copyChargeBatch = 64

// copyCommitWords is how often the copy loop commits its rolled-forward
// progress. Work since the last commit is redone on a fault-induced
// restart — this is the "Cost to Rollback" of Table 3 (a few µs in the
// paper).
const copyCommitWords = 768

// CopyWords transfers min(src.R2, dst.R2) words from src's buffer to dst's
// buffer, advancing both threads' R1/R2 registers word by word exactly as
// the paper's §4.3 example describes ("as the data are transferred, the
// pointer register is incremented and the word count register decremented").
//
// The loop takes the PP preemption point every 8 KB and faults out — with
// both registers rolled forward to the precise word — if either side's
// buffer page is unmapped, so the operation restarts "without redoing any
// transfers".
func (k *Kernel) CopyWords(src, dst *obj.Thread) sys.KErr {
	t := k.cur.current
	if k.Metrics != nil {
		k.Metrics.IPCTransfers.Inc()
	}
	// The whole transfer is the IPC copy path for the profiler (the
	// zero-copy share charges retag per page below); the tag rides
	// through FP parks and is restored on every exit, fault included.
	oldTag := profTag(t, profile.PathIPCCopy)
	defer profRestore(t, oldTag)
	// Data is about to flow src → dst: propagate the causal span before
	// any transfer so even a zero-length rendezvous records the hop.
	k.spanTouch(src, dst, trace.FlowCopy)
	// Under fine locking the bulk copy runs outside the object-space
	// lock — data transfer touches only the two buffers, so concurrent
	// CPUs can overlap their copies (this is where the model earns its
	// scaling). The lock is retaken before returning to the handler on
	// the success path; fault and preemption exits leave it released, and
	// the restart reacquires at kernel entry. The slot is resolved once
	// up front: it is the calling thread's space instance, and the
	// reacquire must hit that same instance even if the thread migrates
	// mid-copy.
	var objHeld int16
	objSlot := -1
	if k.cfg.LockModel != LockBig {
		c := k.cur
		if s := k.slotForID(c, lockObj); c.holds[s] > 0 {
			objSlot = s
			objHeld = c.holds[s]
			c.holds[s] = 1
			k.lockReleaseSlot(c, s)
		}
	}
	reacquire := func() {
		if objSlot >= 0 {
			c := k.cur
			k.lockAcquireSlot(c, objSlot)
			c.holds[objSlot] = objHeld
		}
	}
	if k.par != nil {
		// ParallelHost: a peer space's home CPU may be batch-stepping its
		// threads outside the kernel gate; serialize against it.
		if src.Space != t.Space {
			src.Space.StepMu.Lock()
			defer src.Space.StepMu.Unlock()
		}
		if dst.Space != t.Space && dst.Space != src.Space {
			dst.Space.StepMu.Lock()
			defer dst.Space.StepMu.Unlock()
		}
	}
	// Register-carried small messages: a transfer that fits in the
	// register file end-to-end (≤ FastMsgWords words remaining on the
	// smaller side) moves through registers, not memory, and pays no
	// per-word copy charge. Everything else about the loop — roll-forward,
	// fault exits, commits, preemption points — is byte-identical to the
	// charged path, so restart semantics are unchanged; a fault mid-way is
	// counted as a fast-path fallback and the restarted remainder (still
	// ≤ FastMsgWords) stays register-carried.
	total := src.Regs.R[2]
	if dst.Regs.R[2] < total {
		total = dst.Regs.R[2]
	}
	perWord := uint64(CycCopyWord)
	regCarried := k.ipcFast && total <= FastMsgWords
	if regCarried {
		perWord = 0
	}
	// Zero-copy MMIO screening: the page-share path never runs against a
	// device register window (device stores must see every word), but a
	// space that merely *has* windows — a driver space replying straight
	// out of its DMA region — shares fine from its ordinary pages. The
	// cheap space-level check here only decides whether the per-page
	// MMIOAt probe is needed at all; most transfers skip it entirely.
	zcMMIO := src.Space.AS.HasMMIO() || dst.Space.AS.HasMMIO()
	zcFellBack := false
	zcStreak := false        // a share run is open: its tail page shares too
	words := uint32(0)       // copied but not yet charged/counted
	sincePoint := uint32(0)  // bytes since last preemption point
	sinceCommit := uint32(0) // words since last progress commit
	flush := func() {
		if words > 0 {
			if perWord > 0 {
				k.ChargeKernel(uint64(words) * perWord)
			}
			if k.Metrics != nil {
				k.Metrics.IPCBytes.Add(uint64(words) * 4)
			}
			words = 0
		}
	}
	for src.Regs.R[2] > 0 && dst.Regs.R[2] > 0 {
		// Zero-copy path: when both cursors sit on a page boundary and at
		// least ZeroCopyMinPages whole pages remain on both sides, move
		// the page by sharing the sender's frame into the receiver's
		// region copy-on-write (charged CycPageShare) instead of copying
		// 1024 words. Restart equivalence with the copying path is kept by
		// faulting out at exactly the VA and access the word loop's first
		// touch of this page would raise — src read, then dst write — with
		// the registers rolled forward to the page boundary, so the
		// four-cause fault instruments cannot tell the two paths apart.
		if k.zeroCopy && src.Regs.R[1]%mem.PageSize == 0 && dst.Regs.R[1]%mem.PageSize == 0 {
			rem := src.Regs.R[2]
			if dst.Regs.R[2] < rem {
				rem = dst.Regs.R[2]
			}
			// A run must open with at least ZeroCopyMinPages whole pages
			// to be worth the sharing bookkeeping; once open, it keeps
			// sharing down to and including its final whole page.
			if rem >= ZeroCopyMinPages*PageWords || (zcStreak && rem >= PageWords) {
				srcVA, dstVA := src.Regs.R[1], dst.Regs.R[1]
				dm := dst.Space.AS.MappingAt(dstVA)
				switch {
				case zcMMIO && (src.Space.AS.MMIOAt(srcVA) || dst.Space.AS.MMIOAt(dstVA)),
					dm == nil, dm.Perm&mmu.PermWrite == 0:
					// An MMIO page on either side or an unwritable
					// receiver window: the word loop handles it (storing
					// to a read-only mapping must raise the same fatal
					// fault it always did, and device registers must see
					// every word). Count the demotion once per transfer.
					if !zcFellBack {
						zcFellBack = true
						k.countZeroCopyFallback()
					}
				case !src.Space.AS.Present(srcVA, cpu.Read):
					flush()
					return k.faultOut(t, src.Space, &cpu.Fault{VA: srcVA, Access: cpu.Read})
				case !dst.Space.AS.HasPTE(dstVA):
					// Mirror the word loop's first store: soft if the
					// receiver page is populated, hard if its region
					// needs the pager. The restart resumes sharing here.
					flush()
					return k.faultOut(t, dst.Space, &cpu.Fault{VA: dstVA, Access: cpu.Write})
				default:
					flush()
					c := k.cur
					// The share edits both spaces' translations; under the
					// fine model that is two mmu instances, taken in
					// ascending slot order (coarser models resolve both to
					// the same slot and nest).
					s1, s2 := k.spaceMMUSlot(src.Space), k.spaceMMUSlot(dst.Space)
					if s2 < s1 {
						s1, s2 = s2, s1
					}
					k.lockAcquireSlot(c, s1)
					if s2 != s1 {
						k.lockAcquireSlot(c, s2)
					}
					shared := mmu.ShareCOW(src.Space.AS, srcVA, dst.Space.AS, dstVA)
					if s2 != s1 {
						k.lockReleaseSlot(c, s2)
					}
					k.lockReleaseSlot(c, s1)
					if !shared {
						// Both translations were live yet the share was
						// refused (e.g. the receiver slot is the source
						// page itself mid-overlap); copy this page.
						zcStreak = false
						if !zcFellBack {
							zcFellBack = true
							k.countZeroCopyFallback()
						}
						break
					}
					zcStreak = true
					shareTag := profTag(t, profile.PathIPCShare)
					k.ChargeKernel(CycPageShare)
					profRestore(t, shareTag)
					c = k.cur // ChargeKernel may park and migrate under FP
					src.Regs.R[1] += mem.PageSize
					src.Regs.R[2] -= PageWords
					dst.Regs.R[1] += mem.PageSize
					dst.Regs.R[2] -= PageWords
					c.stats.ZeroCopyShares++
					if k.Metrics != nil {
						k.Metrics.ZeroCopyShares.Inc()
						k.Metrics.IPCBytes.Add(mem.PageSize)
					}
					if k.Tracer != nil {
						pfn := uint32(0)
						if f := dm.Region.FrameAt(dm.RegionOff + (dstVA - dm.Base)); f != nil {
							pfn = f.PFN
						}
						k.emit(trace.Share, dstVA, pfn)
					}
					// Each shared page commits: a later fault must not
					// re-share (and re-charge) pages already delivered.
					sinceCommit = 0
					k.CommitProgress(t)
					sincePoint += mem.PageSize
					if sincePoint >= k.cfg.PreemptPointBytes {
						sincePoint = 0
						if kerr := k.PreemptPoint(); kerr != sys.KOK {
							return kerr
						}
					}
					continue
				}
			}
		}
		// Fast path: copy a run of words through direct page windows.
		// The run is capped at every accounting boundary (charge batch,
		// progress commit, preemption point) so the charge/commit/
		// preemption sequence below fires at exactly the words it would
		// in the word-at-a-time loop — virtual time cannot tell the two
		// apart.
		run := src.Regs.R[2]
		if dst.Regs.R[2] < run {
			run = dst.Regs.R[2]
		}
		if cap := copyChargeBatch - words; cap < run {
			run = cap
		}
		if cap := copyCommitWords - sinceCommit; cap < run {
			run = cap
		}
		if cap := (k.cfg.PreemptPointBytes - sincePoint + 3) / 4; cap < run {
			run = cap
		}
		var n uint32
		if run > 0 && src.Regs.R[1]%4 == 0 && dst.Regs.R[1]%4 == 0 {
			if sw := src.Space.AS.DirectWindow(src.Regs.R[1], cpu.Read, run*4); sw != nil {
				if dw := dst.Space.AS.DirectWindow(dst.Regs.R[1], cpu.Write, uint32(len(sw))); dw != nil {
					n = uint32(copy(dw, sw)) / 4
				}
			}
		}
		if n > 0 {
			src.Regs.R[1] += 4 * n
			src.Regs.R[2] -= n
			dst.Regs.R[1] += 4 * n
			dst.Regs.R[2] -= n
			words += n
			sinceCommit += n
			sincePoint += 4 * n
		} else {
			// Slow path: one word through the MMU, faulting out — with
			// both registers rolled forward to the precise word — when a
			// buffer page is unmapped or misaligned.
			v, f := src.Space.AS.Load32(src.Regs.R[1])
			if f != nil {
				if regCarried {
					k.countFastpathFallback()
				}
				flush()
				return k.faultOut(t, src.Space, f)
			}
			if f := dst.Space.AS.Store32(dst.Regs.R[1], v); f != nil {
				if regCarried {
					k.countFastpathFallback()
				}
				flush()
				return k.faultOut(t, dst.Space, f)
			}
			src.Regs.R[1] += 4
			src.Regs.R[2]--
			dst.Regs.R[1] += 4
			dst.Regs.R[2]--
			words++
			sinceCommit++
			sincePoint += 4
		}
		if words >= copyChargeBatch {
			flush()
		}
		if sinceCommit >= copyCommitWords {
			sinceCommit = 0
			flush()
			k.CommitProgress(t)
		}
		if sincePoint >= k.cfg.PreemptPointBytes {
			sincePoint = 0
			flush()
			k.CommitProgress(t)
			if kerr := k.PreemptPoint(); kerr != sys.KOK {
				return kerr
			}
		}
	}
	flush()
	k.CommitProgress(t)
	reacquire()
	return sys.KOK
}

// ChargeConnect charges the IPC connection-establishment cost.
func (k *Kernel) ChargeConnect() {
	if t := k.cur.current; t != nil {
		oldTag := profTag(t, profile.PathIPCConnect)
		k.ChargeKernel(CycIPCConnect)
		profRestore(t, oldTag)
		return
	}
	k.ChargeKernel(CycIPCConnect)
}
