package fabric

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/futex"
)

// rwLock is the region lock: a reader-writer lock in one uint64 word and a
// 32-bit wake sequence, so it can live wherever the region's bytes do — in
// the MemRegion for heap memory, or in the window arena's region table
// (DESIGN §9), where every rank that maps the arena takes the same word:
// the target's delivery and CommitLocal, and an origin copying into or out
// of the window. Acquisition is a CAS and release an atomic swap or add,
// so the word orders the bytes it guards for the race detector too.
//
// The word:
//
//	bit 63      rwWriter: a writer holds the word
//	bit 62      rwWaiting: a writer waits for readers; while readers remain,
//	            new ones hold off, so a stream of reads cannot starve a write
//	bit 61      rwSleepers: a waiter sleeps on seq; the release that frees
//	            the word clears the bit, bumps seq and wakes every sleeper
//	bits 32-60  the writer's rank + 1
//	bits 0-31   the reader count
//
// An origin always holds a peer's window as a writer, a get too, so every
// hold from another process names its rank; readers are only the owner's
// own goroutines. That is what lets a waiter outlive a holder that died
// mid-copy: before it sleeps, a waiter breaks a hold whose recorded rank
// the fabric has declared failed, and an origin waiting on a failed
// owner's window gives up (the op fails with ErrPeerFailed).
type rwLock struct {
	word uint64
	seq  uint32
	_    uint32
}

const (
	rwWriter      = 1 << 63
	rwWaiting     = 1 << 62
	rwSleepers    = 1 << 61
	rwHolderShift = 32
	rwHolderMask  = (1<<29 - 1) << rwHolderShift
	rwReaders     = 1<<32 - 1
)

// lockSpins is how many times a waiter yields before it sleeps on seq.
// A holder only copies, so a yielding waiter takes the word as soon as it
// is free; a sleeper is an OS thread the release must wake, which costs
// ~15 µs. 1024 yields (~200 µs) outlast a contended copy of a few hundred
// KiB; only a longer hold — a holder descheduled in another process —
// puts the waiter to sleep. rwword_test.go's BenchmarkRegionLockWait
// measures the hand-off against sync.RWMutex (EXPERIMENTS.md).
const lockSpins = 1024

// lockRecheck bounds one sleep: a sleeper wakes this often to ask whether
// the holder or the window's owner has been declared failed.
const lockRecheck = 10 * time.Millisecond

// lockWords is a window arena slot's lock as a WindowArenas returns it:
// the word, then the wake sequence in the low half of the second word.
func lockWords(p *[2]uint64) *rwLock { return (*rwLock)(unsafe.Pointer(p)) }

// failures answers the one question a waiter asks before it sleeps.
type failures interface {
	rankFailed(rank int) bool
}

// lock takes l for writing as rank me, on a region rank owner holds. It
// reports whether it had to wait, and fails only when me is an origin and
// owner was declared failed while it waited.
func (l *rwLock) lock(me, owner int, fs failures) (contended, failed bool) {
	mark := rwWriter | uint64(me+1)<<rwHolderShift
	if atomic.CompareAndSwapUint64(&l.word, 0, mark) {
		return false, false
	}
	for spins := 0; ; spins++ {
		v := atomic.LoadUint64(&l.word)
		switch {
		case v&(rwWriter|rwReaders) == 0:
			if atomic.CompareAndSwapUint64(&l.word, v, mark|v&rwSleepers) {
				return true, false
			}
		case v&(rwWriter|rwWaiting) == 0:
			atomic.CompareAndSwapUint64(&l.word, v, v|rwWaiting)
		default:
			if l.wait(v, spins, me, owner, fs) {
				return true, true
			}
		}
	}
}

// unlock releases a write hold.
func (l *rwLock) unlock() {
	if atomic.SwapUint64(&l.word, 0)&rwSleepers != 0 {
		l.wake()
	}
}

// rlock takes l for reading; see lock. A waiting writer holds new readers
// off only while readers remain, so a waiting mark left by a writer that
// died is cleared by the next write and never blocks a read.
func (l *rwLock) rlock(me, owner int, fs failures) (contended, failed bool) {
	for spins := 0; ; spins++ {
		v := atomic.LoadUint64(&l.word)
		if v&rwWriter == 0 && (v&rwWaiting == 0 || v&rwReaders == 0) {
			if atomic.CompareAndSwapUint64(&l.word, v, v+1) {
				return contended, false
			}
			continue // another reader moved the count
		}
		contended = true
		if l.wait(v, spins, me, owner, fs) {
			return true, true
		}
	}
}

// runlock releases a read hold; the last reader out wakes the sleepers.
func (l *rwLock) runlock() {
	v := atomic.AddUint64(&l.word, ^uint64(0))
	for v&(rwWriter|rwReaders) == 0 && v&rwSleepers != 0 {
		if atomic.CompareAndSwapUint64(&l.word, v, v&^rwSleepers) {
			l.wake()
			return
		}
		v = atomic.LoadUint64(&l.word)
	}
}

// wait is one round of a wait on the held word v: a yield while spins is
// below lockSpins, then a sleep on seq. Before it sleeps it handles
// failure: it reports true when me waits on the window of an owner that
// was declared failed, and breaks a write hold whose recorded rank, in
// another process, was.
func (l *rwLock) wait(v uint64, spins, me, owner int, fs failures) (failed bool) {
	if spins < lockSpins {
		runtime.Gosched()
		return false
	}
	if owner != me && fs.rankFailed(owner) {
		return true
	}
	if h := int(v&rwHolderMask>>rwHolderShift) - 1; v&rwWriter != 0 && h >= 0 && h != me && fs.rankFailed(h) {
		if atomic.CompareAndSwapUint64(&l.word, v, 0) && v&rwSleepers != 0 {
			l.wake()
		}
		return false
	}
	if v&rwSleepers == 0 && !atomic.CompareAndSwapUint64(&l.word, v, v|rwSleepers) {
		return false
	}
	seq := atomic.LoadUint32(&l.seq)
	// A release that cleared the bit before this load bumped seq before
	// it, so sleeping on seq now cannot miss it; one after bumps seq later.
	if atomic.LoadUint64(&l.word)&rwSleepers != 0 {
		futex.Wait(&l.seq, seq, lockRecheck)
	}
	return false
}

// wake bumps seq and wakes every sleeper on it.
func (l *rwLock) wake() {
	atomic.AddUint32(&l.seq, 1)
	futex.Wake(&l.seq, math.MaxInt32)
}
