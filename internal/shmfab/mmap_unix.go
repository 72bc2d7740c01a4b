//go:build unix

package shmfab

import (
	"fmt"
	"os"
	"syscall"
)

// mapShared maps size bytes of f shared read-write. The returned unmap
// must not run while any goroutine can still touch the mapping (the mesh
// joins its poller and takes its rx lock before unmapping).
func mapShared(f *os.File, size int) ([]byte, func() error, error) {
	mem, err := syscall.Mmap(int(f.Fd()), 0, size,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("shmfab: mmap: %w", err)
	}
	return mem, func() error { return syscall.Munmap(mem) }, nil
}
