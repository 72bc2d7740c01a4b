package exec

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// progressFunc is a Progressor without a drive bracket.
type progressFunc func() bool

func (f progressFunc) Progress() bool { return f() }
func (progressFunc) BeginDrive()      {}
func (progressFunc) EndDrive(bool)    {}

// bracketed is a Progressor that counts the drive bracket around a
// progress function.
type bracketed struct {
	fn          func() bool
	begins      int
	ends, found int
	inDrive     bool
}

func (b *bracketed) Progress() bool { return b.fn() }
func (b *bracketed) BeginDrive()    { b.begins++; b.inDrive = true }
func (b *bracketed) EndDrive(found bool) {
	b.ends++
	b.inDrive = false
	if found {
		b.found++
	}
}

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
	e.SetProgress(progressFunc(func() bool {
		calls++
		mu.Lock()
		ready = true
		mu.Unlock()
		gate.Broadcast()
		return true
	}))
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
	e.SetProgress(progressFunc(func() bool {
		calls.Add(1)
		return false
	}))
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
	e.SetProgress(progressFunc(func() bool {
		e.Fail(linkDied)
		return false
	}))
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

// TestRealWaiterTriesAllocateNothing: the bounded progress loop itself,
// with its BeginDrive/EndDrive bracket, is allocation-free (the progress
// engine and the gate's channel are the only things a wait may allocate).
func TestRealWaiterTriesAllocateNothing(t *testing.T) {
	e := NewRealEnv()
	b := &bracketed{fn: func() bool { return false }}
	e.SetProgress(b)
	var mu sync.Mutex
	g := e.NewGate(&mu).(*realGate)
	ch := make(chan struct{})
	if n := testing.AllocsPerRun(20, func() { g.drive(ch) }); n != 0 {
		t.Fatalf("waiter progress loop allocates %.1f times per wait", n)
	}
	if b.begins != b.ends || b.begins == 0 || b.found != 0 {
		t.Fatalf("drives: %d begins, %d ends, %d found; want equal, nonzero, 0 found", b.begins, b.ends, b.found)
	}
}

// TestRealWaitBracketsDrive: a gate waiter's tries are one drive,
// BeginDrive before the first Progress and EndDrive after the last, with
// found telling whether the gate was broadcast (true) or the tries ran
// out (false). Yield and Poll steps run Progress outside any drive, and a
// drive that unwinds on abort still ends, as given up.
func TestRealWaitBracketsDrive(t *testing.T) {
	e := NewRealEnv()
	var mu sync.Mutex
	gate := e.NewGate(&mu)
	var b *bracketed
	ready, calls, outside := false, 0, 0
	b = &bracketed{fn: func() bool {
		calls++
		if !b.inDrive {
			outside++
		}
		if calls == 3 {
			mu.Lock()
			ready = true
			mu.Unlock()
			gate.Broadcast()
		}
		return false
	}}
	e.SetProgress(b)
	err := runWithin(t, e, 10*time.Second, 1, func(p *Proc) {
		p.Yield()
		p.Poll(10)
		mu.Lock()
		for !ready {
			gate.Wait(p)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.begins != 1 || b.ends != 1 || b.found != 1 || outside != 2 {
		t.Fatalf("one found drive after two bare steps: got %d begins, %d ends, %d found, %d steps outside a drive",
			b.begins, b.ends, b.found, outside)
	}

	// Tries run out: the drive ends as given up before the waiter parks.
	e = NewRealEnv()
	gate = e.NewGate(&mu)
	var tries atomic.Int64
	b = &bracketed{fn: func() bool { tries.Add(1); return false }}
	e.SetProgress(b)
	ready = false
	go func() {
		for tries.Load() < waiterTries {
			time.Sleep(100 * time.Microsecond)
		}
		mu.Lock()
		ready = true
		mu.Unlock()
		gate.Broadcast()
	}()
	err = runWithin(t, e, 10*time.Second, 1, func(p *Proc) {
		mu.Lock()
		for !ready {
			gate.Wait(p)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.begins != b.ends || b.found != 0 {
		t.Fatalf("given-up drives: %d begins, %d ends, %d found; want equal, 0 found", b.begins, b.ends, b.found)
	}

	// An abort inside the drive unwinds through EndDrive(false).
	e = NewRealEnv()
	gate = e.NewGate(&mu)
	linkDied := errors.New("link died")
	b = &bracketed{fn: func() bool { e.Fail(linkDied); return false }}
	e.SetProgress(b)
	err = runWithin(t, e, 10*time.Second, 1, func(p *Proc) {
		mu.Lock()
		defer mu.Unlock()
		for {
			gate.Wait(p)
		}
	})
	if !errors.Is(err, linkDied) {
		t.Fatalf("err = %v, want %v", err, linkDied)
	}
	if b.begins != 1 || b.ends != 1 || b.found != 0 {
		t.Fatalf("aborted drive: %d begins, %d ends, %d found; want 1, 1, 0", b.begins, b.ends, b.found)
	}
}

// TestRealYieldDrivesProgress: Yield and Poll are one poll step each, so
// with a progress function installed every call runs it exactly once, and
// a rank that polls takes its own deliveries the way a gate waiter does:
// here nothing but the progress function ever sets arrived.
func TestRealYieldDrivesProgress(t *testing.T) {
	e := NewRealEnv()
	calls, arrived := 0, false
	e.SetProgress(progressFunc(func() bool {
		calls++
		if calls == 23 {
			arrived = true
		}
		return calls%2 == 0
	}))
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
