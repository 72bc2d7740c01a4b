//go:build linux && (amd64 || arm64)

// Package futex wraps the futex calls that threads sleep and wake on
// across shared memory. Every call is non-private: the words may live in
// a mapping two processes share, and a private futex is keyed by address
// space.
package futex

import (
	"syscall"
	"time"
	"unsafe"
)

const (
	opWait = 0 // FUTEX_WAIT
	opWake = 1 // FUTEX_WAKE
)

// Wait sleeps while *addr holds val, for at most d. It returns at once
// when *addr differs, and may return early (a signal, a spurious wake), so
// the caller re-checks its condition after every return.
func Wait(addr *uint32, val uint32, d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(addr)), opWait, uintptr(val), uintptr(unsafe.Pointer(&ts)), 0, 0)
}

// Wake wakes at most n sleepers on addr.
func Wake(addr *uint32, n int) {
	syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(addr)), opWake, uintptr(n), 0, 0, 0)
}
