package webgraph

import "testing"

// SetSlabBufferBytes lowers the transpose bucket buffer until t ends.
func SetSlabBufferBytes(t testing.TB, n int64) {
	old := slabBufferBytes
	slabBufferBytes = n
	t.Cleanup(func() { slabBufferBytes = old })
}
