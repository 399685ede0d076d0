//go:build unix

package mempool

import "syscall"

// mapBytes returns n bytes of anonymous private memory outside the Go
// heap, or nil when the system refuses the mapping (the caller makes).
func mapBytes(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	return b
}

// unmapBytes gives a mapBytes buffer back to the system and reports
// whether it was one: syscall.Munmap only unmaps what syscall.Mmap
// mapped, so a Go-heap buffer is left alone.
func unmapBytes(b []byte) bool { return syscall.Munmap(b) == nil }
