//go:build !unix

package mem

// mapZeroPage returns an ordinary zeroed page where the host has no
// read-only anonymous mapping; a missed Writable then goes unnoticed
// here, so the fault-on-write tests run on unix hosts only.
func mapZeroPage() []byte { return make([]byte, PageSize) }
