//go:build !linux || !(amd64 || arm64)

// Package futex wraps the futex calls that threads sleep and wake on
// across shared memory. Without futexes a sleeper naps and re-checks.
package futex

import (
	"sync/atomic"
	"time"
)

// Wait naps at most 50 µs (and at most d) unless *addr already differs
// from val.
func Wait(addr *uint32, val uint32, d time.Duration) {
	if atomic.LoadUint32(addr) == val {
		time.Sleep(min(d, 50*time.Microsecond))
	}
}

// Wake is a no-op: the store before it is what a napping waiter sees.
func Wake(*uint32, int) {}
