//go:build linux && (amd64 || arm64)

package shmfab

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// The doorbell words live in the shared segment, so every futex call here
// is non-private: a private futex is keyed by address space, and the two
// ends of a file-backed segment map it in different processes.
const (
	sysFutexWaitv = 449 // futex_waitv(2), Linux 5.16; one number on every architecture
	futex2Size32  = 2   // FUTEX2_SIZE_U32
)

// futexWaitv is the kernel's struct futex_waitv.
type futexWaitv struct {
	val      uint64
	uaddr    uint64
	flags    uint32
	reserved uint32
}

// sleeper is the poller's wait set: one entry per inbound doorbell word
// (at least one), built once at Attach so that a sleep allocates nothing.
// noWaitv is set once futex_waitv reports ENOSYS (a kernel before 5.16);
// from then on the poller sleeps like it does on other platforms.
type sleeper struct {
	words   []*uint32
	vec     []futexWaitv
	noWaitv atomic.Bool
}

func newSleeper(words []*uint32) *sleeper {
	vec := make([]futexWaitv, len(words))
	for i, w := range words {
		vec[i] = futexWaitv{val: bellArmed, uaddr: uint64(uintptr(unsafe.Pointer(w))), flags: futex2Size32}
	}
	return &sleeper{words: words, vec: vec}
}

// wait sleeps until one of the words is woken, and returns at once if any
// of them is no longer armed. It waits on bellArmed, the value the poller
// stored, never on one it re-loads: a ring or kick changes the word before
// it wakes, and a sleeper that waited on the changed value would sleep
// through it. The caller re-polls after every return, so a spurious one
// costs a round.
func (s *sleeper) wait() {
	for !s.noWaitv.Load() {
		_, _, errno := syscall.Syscall6(sysFutexWaitv, uintptr(unsafe.Pointer(&s.vec[0])), uintptr(len(s.vec)), 0, 0, 0, 0)
		runtime.KeepAlive(s.words)
		switch errno {
		case syscall.EINTR:
			continue // a signal, not a wake: the words are re-checked on entry
		case syscall.ENOSYS:
			s.noWaitv.Store(true)
		default:
			return
		}
	}
	pollBells(s.words)
}
