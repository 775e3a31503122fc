//go:build unix

package cache

import (
	"os"
	"syscall"
)

// mapMem maps n bytes (rounded up to whole pages) of private anonymous
// memory, outside the Go heap; nil when the kernel refuses.
func mapMem(n int) []byte {
	page := os.Getpagesize()
	n = (n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	return mem
}

// unmapMem releases mappings made by mapMem.
func unmapMem(mems [][]byte) {
	for _, m := range mems {
		_ = syscall.Munmap(m)
	}
}
