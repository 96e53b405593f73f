//go:build unix

package mem

import (
	"fmt"
	"syscall"
)

// mapZeroPage maps one anonymous host page read-only: it reads as zeros,
// and any store into it faults the process.
func mapZeroPage() []byte {
	p, err := syscall.Mmap(-1, 0, PageSize, syscall.PROT_READ, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("mem: mapping the zero page: %v", err))
	}
	return p
}
