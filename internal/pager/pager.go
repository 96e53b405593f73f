// Package pager provides a reusable user-mode memory manager: a guest
// program that serves hard page faults on a region over exception IPC,
// exactly the arrangement the paper's memtest workload runs under ("a
// memory manager which allocates memory on demand, exercising kernel
// fault handling and the exception IPC facility", §5.3).
//
// The kernel converts a hard fault into a two-word notification message
// queued on the pager port; the pager thread receives it with
// ipc_wait_receive, installs a zero page with mem_allocate, and the
// faulting thread restarts transparently from its rolled-forward state.
package pager

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/sys"
)

// Config places the pager's code and data in its space.
type Config struct {
	// CodeBase is where the pager program is loaded.
	CodeBase uint32
	// DataBase is a one-page scratch window for fault messages.
	DataBase uint32
	// Priority of the pager thread; it should exceed its clients' so
	// fault service is prompt.
	Priority int
}

// DefaultConfig returns placement that avoids the usual client layout.
func DefaultConfig() Config {
	return Config{CodeBase: 0x00F0_0000, DataBase: 0x00F8_0000, Priority: 16}
}

// Pager is an installed user-mode memory manager.
type Pager struct {
	Thread  *obj.Thread
	Port    *obj.Port
	Portset *obj.Portset
	Region  *obj.Region

	// Served can be read after a run: the number of fault messages the
	// pager processed, exported via the region's populated page count.
	k *core.Kernel
}

// Install attaches a new user-mode pager (port, portset, and server
// thread in space s) to the given region object. Hard faults anywhere the
// region is mapped are serviced by the pager thread.
func Install(k *core.Kernel, s *obj.Space, reg *obj.Region, cfg Config) (*Pager, error) {
	po, _ := obj.New(sys.ObjPort)
	pso, _ := obj.New(sys.ObjPortset)
	port := po.(*obj.Port)
	ps := pso.(*obj.Portset)
	k.BindFresh(s, port)
	psVA := k.BindFresh(s, ps)
	if e := ps.AddPort(port); e != sys.EOK {
		return nil, fmt.Errorf("pager: portset add: %v", e)
	}
	regVA := k.BindFresh(s, reg)
	k.AttachPager(reg, port)

	// Scratch page for fault messages.
	scratch := &obj.Region{
		Header: obj.Header{Type: sys.ObjRegion},
		R:      mmu.NewRegion(mem.PageSize, true),
	}
	k.BindFresh(s, scratch)
	if _, err := k.MapInto(s, scratch, cfg.DataBase, 0, mem.PageSize, mmu.PermRW); err != nil {
		return nil, err
	}
	// Pre-touch the scratch page so fault-message delivery never takes
	// a fault of its own (keeps experiment fault counts clean).
	if err := k.Populate(s, cfg.DataBase, 8); err != nil {
		return nil, err
	}

	b := Program(cfg.CodeBase, cfg.DataBase, psVA, regVA)
	th, err := k.SpawnProgram(s, cfg.CodeBase, b.MustAssemble(), cfg.Priority)
	if err != nil {
		return nil, err
	}
	return &Pager{Thread: th, Port: port, Portset: ps, Region: reg, k: k}, nil
}

// Program builds the pager service loop: receive a fault notification,
// install a zero page at the faulting offset, repeat.
func Program(codeBase, buf, psVA, regVA uint32) *prog.Builder {
	b := prog.New(codeBase)
	b.Label("loop").
		IPCWaitReceive(buf, 2, psVA).
		// R0 != EOK (e.g. portset destroyed): exit.
		Movi(5, 0)
	b.Bne(0, 5, "die")
	b.Movi(1, regVA).
		Movi(4, buf).Ld(2, 4, 0). // faulting offset from the message
		Movi(3, 1).
		Syscall(sys.NMemAllocate).
		Jmp("loop").
		Label("die").
		Halt()
	return b
}

// PresentPages reports how many pages of the managed region have been
// populated (a proxy for faults served).
func (p *Pager) PresentPages() int { return p.Region.R.PresentPages() }
