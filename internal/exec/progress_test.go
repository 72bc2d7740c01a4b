package exec

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runWithin runs a Real-engine job and fails the test if it has not
// returned within d: a waiter that parks where it should not, never
// wakes, or sleeps where it should poll would otherwise hang the test.
func runWithin(t *testing.T, e *RealEnv, d time.Duration, n int, body func(p *Proc)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- e.Run(n, body) }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("run did not finish within %v", d)
		return nil
	}
}

// TestRealWaitProgressBroadcastSkipsPark: a progress function that
// delivers what the waiter needs (and broadcasts its gate) lets Wait
// return after one try. Nothing else ever broadcasts, so a waiter that
// parked instead would hang.
func TestRealWaitProgressBroadcastSkipsPark(t *testing.T) {
	e := NewRealEnv()
	var mu sync.Mutex
	gate := e.NewGate(&mu)
	ready, calls := false, 0
	e.SetProgress(func() bool {
		calls++
		mu.Lock()
		ready = true
		mu.Unlock()
		gate.Broadcast()
		return true
	})
	err := runWithin(t, e, 10*time.Second, 1, func(p *Proc) {
		mu.Lock()
		for !ready {
			gate.Wait(p)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("progress ran %d times, want 1", calls)
	}
}

// TestRealWaitParksAfterTryBudget: a progress function that never helps
// is tried waiterTries times, after which the waiter parks (no further
// tries) until a Broadcast wakes it.
func TestRealWaitParksAfterTryBudget(t *testing.T) {
	e := NewRealEnv()
	var mu sync.Mutex
	gate := e.NewGate(&mu)
	ready := false
	var calls atomic.Int64
	e.SetProgress(func() bool {
		calls.Add(1)
		return false
	})
	go func() {
		for calls.Load() < waiterTries {
			time.Sleep(100 * time.Microsecond)
		}
		time.Sleep(20 * time.Millisecond) // a waiter still trying would go past the budget
		if n := calls.Load(); n != waiterTries {
			t.Errorf("progress ran %d times before the park, want %d", n, waiterTries)
		}
		mu.Lock()
		ready = true
		mu.Unlock()
		gate.Broadcast()
	}()
	err := runWithin(t, e, 10*time.Second, 1, func(p *Proc) {
		mu.Lock()
		for !ready {
			gate.Wait(p)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != waiterTries {
		t.Fatalf("progress ran %d times, want %d", n, waiterTries)
	}
}

// TestRealAbortInsideProgressUnwinds: a run aborted while its waiter is in
// the progress loop (here by the progress function itself, as a delivery
// failure would) unwinds the waiter with procAbort and the gate's locker
// held, so the caller's deferred Unlock balances.
func TestRealAbortInsideProgressUnwinds(t *testing.T) {
	e := NewRealEnv()
	var mu sync.Mutex
	gate := e.NewGate(&mu)
	linkDied := errors.New("link died")
	e.SetProgress(func() bool {
		e.Fail(linkDied)
		return false
	})
	err := runWithin(t, e, 10*time.Second, 1, func(p *Proc) {
		mu.Lock()
		defer func() {
			r := recover()
			if !IsAbortPanic(r) {
				t.Errorf("waiter unwound with %v, want procAbort", r)
			}
			if mu.TryLock() {
				t.Error("waiter unwound without the locker")
			}
			mu.Unlock()
			panic(r)
		}()
		for {
			gate.Wait(p)
		}
	})
	if !errors.Is(err, linkDied) {
		t.Fatalf("err = %v, want %v", err, linkDied)
	}
}

// TestRealWaiterTriesAllocateNothing: the bounded progress loop itself is
// allocation-free (the progress function and the gate's channel are the
// only things a wait may allocate).
func TestRealWaiterTriesAllocateNothing(t *testing.T) {
	e := NewRealEnv()
	e.SetProgress(func() bool { return false })
	var mu sync.Mutex
	g := e.NewGate(&mu).(*realGate)
	ch := make(chan struct{})
	if n := testing.AllocsPerRun(20, func() { g.drive(ch) }); n != 0 {
		t.Fatalf("waiter progress loop allocates %.1f times per wait", n)
	}
}

// TestRealYieldDrivesProgress: Yield and Poll are one poll step each, so
// with a progress function installed every call runs it exactly once, and
// a rank that polls takes its own deliveries the way a gate waiter does:
// here nothing but the progress function ever sets arrived.
func TestRealYieldDrivesProgress(t *testing.T) {
	e := NewRealEnv()
	calls, arrived := 0, false
	e.SetProgress(func() bool {
		calls++
		if calls == 23 {
			arrived = true
		}
		return calls%2 == 0
	})
	err := runWithin(t, e, 10*time.Second, 1, func(p *Proc) {
		for i := 1; i <= 10; i++ {
			p.Yield()
			p.Poll(100)
			if calls != 2*i {
				t.Errorf("after %d Yield+Poll pairs progress ran %d times, want %d", i, calls, 2*i)
				return
			}
		}
		for !arrived {
			p.Yield()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 23 {
		t.Fatalf("progress ran %d times, want 23 (one per poll step)", calls)
	}
}

// TestRealYieldNeverSleeps: an idle poll step is a scheduler yield, not a
// sleep, so 10 000 Yields and 10 000 Polls finish in well under 100 ms (a
// sleeping backoff costs tens of microseconds a step at the least), and a
// rank spinning on Yield still unwinds when its run aborts.
func TestRealYieldNeverSleeps(t *testing.T) {
	const steps = 10000
	var took time.Duration
	err := runWithin(t, NewRealEnv(), 10*time.Second, 1, func(p *Proc) {
		start := time.Now()
		for range steps {
			p.Yield()
		}
		for range steps {
			p.Poll(100)
		}
		took = time.Since(start)
	})
	if err != nil {
		t.Fatal(err)
	}
	if took > 100*time.Millisecond {
		t.Fatalf("%d idle poll steps took %v, want < 100ms", 2*steps, took)
	}

	e := NewRealEnv()
	boom := errors.New("peer failed")
	unwound := false
	err = runWithin(t, e, 10*time.Second, 2, func(p *Proc) {
		if p.Rank() == 1 {
			e.Fail(boom)
			return
		}
		defer func() {
			unwound = IsAbortPanic(recover())
		}()
		for {
			p.Yield()
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if !unwound {
		t.Fatal("a Yield loop did not unwind with procAbort when the run aborted")
	}
}
