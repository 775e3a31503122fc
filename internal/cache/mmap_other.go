//go:build !unix

package cache

// mapMem falls back to the Go heap where anonymous mappings are not
// available.
func mapMem(n int) []byte { return make([]byte, n) }

// unmapMem leaves heap-backed chunks to the collector.
func unmapMem([][]byte) {}
