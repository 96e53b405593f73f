package mmu

import "repro/internal/mem"

// The page table is a three-level radix tree indexed by vpn, the shape of
// the tables a hardware MMU walks: a 64-entry top level embedded in the
// AddrSpace points at 128-entry middle blocks, which point at leaves of
// 128 ptes. Blocks are allocated on the first install into their range
// and kept for the space's lifetime, so a *pte stays valid across later
// installs and drops. The blocks are small on purpose: a space touches a
// few scattered windows (code and data near zero, the kernel-handle
// window at the top), and each costs one 2 KiB leaf. With two levels of
// 1 024 a space pays an 8 KiB directory and a 16 KiB leaf per window,
// which made building netserve's small kernels measurably slower.
const (
	ptLeafBits = 7
	ptMidBits  = 7
	ptTopBits  = 32 - mem.PageShift - ptMidBits - ptLeafBits // the rest of a vpn
	ptTopSize  = 1 << ptTopBits
	ptMidSize  = 1 << ptMidBits
	ptLeafSize = 1 << ptLeafBits
)

type ptLeaf [ptLeafSize]pte

type ptMid [ptMidSize]*ptLeaf

// pageTable maps vpn -> pte. An entry with a nil frame is absent.
type pageTable struct {
	top [ptTopSize]*ptMid
	n   int // present entries
}

// leaf returns leaf number li (vpn >> ptLeafBits), or nil if it has never
// been allocated.
func (pt *pageTable) leaf(li uint32) *ptLeaf {
	m := pt.top[(li>>ptMidBits)%ptTopSize]
	if m == nil {
		return nil
	}
	return m[li%ptMidSize]
}

// lookup returns vpn's entry, or nil when none is installed. The pointer
// may be written through to rewrite the entry in place.
func (pt *pageTable) lookup(vpn uint32) *pte {
	l := pt.leaf(vpn >> ptLeafBits)
	if l == nil {
		return nil
	}
	if e := &l[vpn%ptLeafSize]; e.frame != nil {
		return e
	}
	return nil
}

// set installs e at vpn, replacing any entry there. e.frame must be
// non-nil.
func (pt *pageTable) set(vpn uint32, e pte) {
	m := &pt.top[(vpn>>(ptMidBits+ptLeafBits))%ptTopSize]
	if *m == nil {
		*m = new(ptMid)
	}
	l := &(*m)[(vpn>>ptLeafBits)%ptMidSize]
	if *l == nil {
		*l = new(ptLeaf)
	}
	s := &(*l)[vpn%ptLeafSize]
	if s.frame == nil {
		pt.n++
	}
	*s = e
}

// drop removes the present entry e (a pointer lookup or walk returned).
func (pt *pageTable) drop(e *pte) {
	*e = pte{}
	pt.n--
}

// walk calls fn on every present entry with first <= vpn <= last, in vpn
// order, visiting only allocated blocks. fn may rewrite or drop the entry
// it is given.
func (pt *pageTable) walk(first, last uint32, fn func(vpn uint32, e *pte)) {
	if first > last {
		return
	}
	for li := first >> ptLeafBits; li <= last>>ptLeafBits; li++ {
		if pt.top[(li>>ptMidBits)%ptTopSize] == nil {
			li |= ptMidSize - 1 // skip the rest of the absent middle block
			continue
		}
		l := pt.leaf(li)
		if l == nil {
			continue
		}
		lo, hi := uint32(0), uint32(ptLeafSize-1)
		if li == first>>ptLeafBits {
			lo = first % ptLeafSize
		}
		if li == last>>ptLeafBits {
			hi = last % ptLeafSize
		}
		for i := lo; i <= hi; i++ {
			if e := &l[i]; e.frame != nil {
				fn(li<<ptLeafBits|i, e)
			}
		}
	}
}
