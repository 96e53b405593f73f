package dev

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/sys"
)

// Attach glue shared by every simulated device: the block device below
// and the NIC (and its user-mode network server in internal/netsrv)
// build their driver spaces from the same parts — an IRQ raiser, a DMA
// region mapped and pre-touched, a register window, a scratch page, and
// a service port on a fresh portset. Each helper does exactly what the
// original block-device Attach did inline, in the same order, so handle
// VAs and memory layout are unchanged.

// IRQRaiser validates line against the kernel's interrupt lines and
// returns a closure raising it. Devices must only call the closure from
// timer callbacks (which fire under the kernel gate), never directly
// from an IOWrite32 — register writes arrive on the guest's execution
// path, outside the gate under ParallelHost.
func IRQRaiser(k *core.Kernel, line int) (func(), error) {
	if line < 0 || line >= core.NumIRQLines {
		return nil, fmt.Errorf("dev: IRQ line %d out of range", line)
	}
	return func() { k.RaiseIRQ(line) }, nil
}

// MapDMA binds a fresh demand-zero region of dmaBytes to s, maps it RW
// at va, and pre-touches every page so driver code sending replies
// straight out of the DMA window never faults on it.
func MapDMA(k *core.Kernel, s *obj.Space, va, dmaBytes uint32) (*obj.Region, error) {
	dmaBytes = mem.PageRound(dmaBytes)
	reg := &obj.Region{Header: obj.Header{Type: sys.ObjRegion}, R: mmu.NewRegion(dmaBytes, true)}
	k.BindFresh(s, reg)
	if _, err := k.MapInto(s, reg, va, 0, dmaBytes, mmu.PermRW); err != nil {
		return nil, err
	}
	if err := k.Populate(s, va, dmaBytes); err != nil {
		return nil, err
	}
	return reg, nil
}

// MapRegisters installs a device register window of ioBytes (rounded up
// to whole pages) at va.
func MapRegisters(s *obj.Space, va, ioBytes uint32, h mmu.IOHandler) error {
	return s.AS.MapIO(va, mem.PageRound(ioBytes), h)
}

// MapScratch binds a one-page demand-zero scratch/request region at va
// and touches its head so request buffers are resident.
func MapScratch(k *core.Kernel, s *obj.Space, va uint32) (*obj.Region, error) {
	reg := &obj.Region{Header: obj.Header{Type: sys.ObjRegion}, R: mmu.NewRegion(mem.PageSize, true)}
	k.BindFresh(s, reg)
	if _, err := k.MapInto(s, reg, va, 0, mem.PageSize, mmu.PermRW); err != nil {
		return nil, err
	}
	if err := k.Populate(s, va, 64); err != nil {
		return nil, err
	}
	return reg, nil
}

// NewServicePort binds a fresh port and a portset holding it to s and
// returns them with the portset's handle VA — the service loop's
// wait_receive anchor. Clients reach the port through a Reference (see
// BindClientRef).
func NewServicePort(k *core.Kernel, s *obj.Space) (*obj.Port, *obj.Portset, uint32) {
	po, _ := obj.New(sys.ObjPort)
	pso, _ := obj.New(sys.ObjPortset)
	port := po.(*obj.Port)
	ps := pso.(*obj.Portset)
	k.BindFresh(s, port)
	psVA := k.BindFresh(s, ps)
	ps.AddPort(port)
	return port, ps, psVA
}

// BindClientRef binds a Reference to port into a client space and
// returns its handle VA.
func BindClientRef(k *core.Kernel, client *obj.Space, port *obj.Port) uint32 {
	ref := &obj.Ref{Header: obj.Header{Type: sys.ObjRef}, Target: port}
	return k.BindFresh(client, ref)
}
