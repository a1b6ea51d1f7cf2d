//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package sgx

import (
	"fmt"
	"syscall"
)

// mapEPC maps size bytes of private anonymous memory: zero-filled, and
// backed by the kernel only as each page is first touched.
func mapEPC(size int) ([]byte, error) {
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("sgx: mapping %d bytes of EPC: %w", size, err)
	}
	return b, nil
}

func unmapEPC(b []byte) { _ = syscall.Munmap(b) }
