package fabric

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// failSet is a failures source the tests declare ranks failed in.
type failSet struct{ dead sync.Map }

func (f *failSet) rankFailed(rank int) bool { _, ok := f.dead.Load(rank); return ok }
func (f *failSet) fail(rank int)            { f.dead.Store(rank, true) }

// TestLockWordExcludes storms one lock from writers (origins of ranks 1–3)
// that fill a buffer with one byte value and readers (the owner, rank 0)
// that require the buffer to hold one value throughout: a reader that saw
// a torn buffer, or two writers interleaving, breaks the lock's
// exclusion. Holds are long enough that waiters also sleep on the wake
// sequence. Under -race the lock's atomics must also order every buffer
// access.
func TestLockWordExcludes(t *testing.T) {
	const (
		writers, readers = 3, 3
		rounds           = 2000
	)
	var l rwLock
	fs := &failSet{}
	buf := make([]byte, 4096)
	var wg sync.WaitGroup
	for w := 1; w <= writers; w++ {
		wg.Add(1)
		go func(v byte) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				l.lock(int(v), 0, fs)
				for j := range buf {
					buf[j] = v
				}
				l.unlock()
			}
		}(byte(w))
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				l.rlock(0, 0, fs)
				first := buf[0]
				for j, b := range buf {
					if b != first {
						t.Errorf("reader saw a torn buffer: byte %d = %d, byte 0 = %d", j, b, first)
						break
					}
				}
				l.runlock()
			}
		}()
	}
	wg.Wait()
	if w := atomic.LoadUint64(&l.word); w != 0 {
		t.Errorf("lock word %#x after every holder released it, want 0", w)
	}
}

// lockWithin runs take on a goroutine and reports what it returned, or
// fails t if it has not returned within d.
func lockWithin(t *testing.T, d time.Duration, take func() bool) bool {
	t.Helper()
	done := make(chan bool, 1)
	go func() { done <- take() }()
	select {
	case failed := <-done:
		return failed
	case <-time.After(d):
		t.Fatalf("lock wait still blocked after %v", d)
		return false
	}
}

// TestLockWordBreaksFailedHolder: an origin (rank 1) that died holding the
// owner's window leaves the word held. The owner's writer and reader, by
// then asleep on the wake sequence, take the word once rank 1 is declared
// failed instead of waiting forever.
func TestLockWordBreaksFailedHolder(t *testing.T) {
	for _, reader := range []bool{false, true} {
		var l rwLock
		fs := &failSet{}
		l.lock(1, 0, fs) // rank 1 dies here, mid-copy
		took := make(chan struct{})
		go func() {
			time.Sleep(20 * time.Millisecond) // the owner's waiter is asleep by now
			fs.fail(1)
			close(took)
		}()
		failed := lockWithin(t, 5*time.Second, func() bool {
			if reader {
				_, failed := l.rlock(0, 0, fs)
				return failed
			}
			_, failed := l.lock(0, 0, fs)
			return failed
		})
		<-took
		if failed {
			t.Errorf("reader=%v: the owner's wait failed; want it to break the dead origin's hold", reader)
		}
		want := uint64(1)
		if !reader {
			want = rwWriter | 1<<rwHolderShift
		}
		if w := atomic.LoadUint64(&l.word); w != want {
			t.Errorf("reader=%v: word %#x after breaking the hold, want %#x", reader, w, want)
		}
	}
}

// TestLockWordOriginGivesUpOnFailedOwner: an origin (rank 1) waiting on a
// window its owner holds gives up once the owner is declared failed; the
// hold itself is left alone.
func TestLockWordOriginGivesUpOnFailedOwner(t *testing.T) {
	var l rwLock
	fs := &failSet{}
	l.rlock(0, 0, fs) // the owner dies reading its window
	go func() {
		time.Sleep(20 * time.Millisecond)
		fs.fail(0)
	}()
	if !lockWithin(t, 5*time.Second, func() bool { _, failed := l.lock(1, 0, fs); return failed }) {
		t.Fatal("the origin took the word of a window whose owner holds it")
	}
	if w := atomic.LoadUint64(&l.word); w&rwReaders != 1 || w&rwWriter != 0 {
		t.Errorf("word %#x after the origin gave up, want the owner's read hold", w)
	}
}

// TestLockWordWakesSleeper: a waiter asleep on the wake sequence takes the
// word as soon as the holder lets go, not at its next recheck. One of
// three tries must hand over well inside lockRecheck.
func TestLockWordWakesSleeper(t *testing.T) {
	best := time.Hour
	for try := 0; try < 3; try++ {
		var l rwLock
		fs := &failSet{}
		l.lock(1, 0, fs)
		var released atomic.Int64
		done := make(chan time.Duration, 1)
		go func() {
			l.lock(2, 0, fs)
			done <- time.Duration(time.Now().UnixNano() - released.Load())
			l.unlock()
		}()
		time.Sleep(20 * time.Millisecond) // past the yields: asleep
		released.Store(time.Now().UnixNano())
		l.unlock()
		best = min(best, <-done)
	}
	if best > lockRecheck/4 {
		t.Errorf("sleeping waiter took the word %v after the release, want well under %v", best, lockRecheck)
	}
}

// BenchmarkRegionLockHandoff is two goroutines taking one lock in turn,
// each holding it for a copy of the given size, for the region lock and
// for sync.RWMutex, the lock it replaced. ns/op is per acquisition.
func BenchmarkRegionLockHandoff(b *testing.B) {
	for _, size := range []int{64, 4 << 10, 256 << 10} {
		src, dst := make([]byte, size), make([]byte, size)
		b.Run("word/"+sizeName(size), func(b *testing.B) {
			var l rwLock
			fs := &failSet{}
			handoff(b, func(me int) { l.lock(me, 0, fs); copy(dst, src); l.unlock() })
		})
		b.Run("rwmutex/"+sizeName(size), func(b *testing.B) {
			var mu sync.RWMutex
			handoff(b, func(int) { mu.Lock(); copy(dst, src); mu.Unlock() })
		})
	}
}

func sizeName(n int) string {
	if n >= 1<<10 {
		return strconv.Itoa(n>>10) + "KiB"
	}
	return strconv.Itoa(n) + "B"
}

func handoff(b *testing.B, hold func(me int)) {
	var wg sync.WaitGroup
	for g := 1; g <= 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N/2; i++ {
				hold(g)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkRegionLockWait measures the contended wait itself: a holder
// takes the lock, lets a waiter start waiting, copies for a while (the
// sub-benchmark's hold) and releases; wake-ns is the mean time from that
// release to the waiter's acquisition, for the region lock and for
// sync.RWMutex.
func BenchmarkRegionLockWait(b *testing.B) {
	for _, hold := range []time.Duration{time.Microsecond, 20 * time.Microsecond, 200 * time.Microsecond} {
		b.Run("word/"+hold.String(), func(b *testing.B) {
			var l rwLock
			fs := &failSet{}
			waitLatency(b, hold, func() { l.lock(1, 0, fs) }, l.unlock, func() { l.lock(2, 0, fs) }, l.unlock)
		})
		b.Run("rwmutex/"+hold.String(), func(b *testing.B) {
			var mu sync.RWMutex
			waitLatency(b, hold, mu.Lock, mu.Unlock, mu.Lock, mu.Unlock)
		})
	}
}

func waitLatency(b *testing.B, hold time.Duration, lock, unlock, wlock, wunlock func()) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		lock()
		started := make(chan struct{})
		got := make(chan time.Time, 1)
		go func() {
			close(started)
			wlock()
			got <- time.Now()
			wunlock()
		}()
		<-started
		for end := time.Now().Add(hold); time.Now().Before(end); {
		}
		released := time.Now()
		unlock()
		total += (<-got).Sub(released)
	}
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "wake-ns")
}
