//go:build !unix

package mempool

// mapBytes has no anonymous mapping to offer here: every transient is
// Go memory (the caller makes).
func mapBytes(int) []byte { return nil }

// unmapBytes reports that nothing was unmapped.
func unmapBytes([]byte) bool { return false }
