package exec

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runWithin runs a Real-engine job and fails the test if it has not
// returned within d: a waiter that parks where it should not, or never
// wakes, hangs instead of failing.
func runWithin(t *testing.T, e *RealEnv, d time.Duration, n int, body func(p *Proc)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- e.Run(n, body) }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatal("run did not finish: a gate waiter never woke")
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
