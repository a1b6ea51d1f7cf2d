//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package sgx

// mapEPC falls back to the Go heap where no anonymous mapping is wired up.
func mapEPC(size int) ([]byte, error) { return make([]byte, size), nil }

func unmapEPC([]byte) {}
