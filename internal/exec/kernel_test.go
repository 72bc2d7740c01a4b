package exec

import (
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSimKernelEventsAllocateNothing pins the Sim kernel's event path at
// zero allocations once warm: wake events carry the rank rather than a
// closure, fired events are recycled by the queue, and a gate's waiter
// list is reused across broadcasts. One rank sleeping is the self-wake
// path (the parked rank pops its own wake); two ranks bouncing a turn
// through a gate is the handoff path (each wake passes the baton).
func TestSimKernelEventsAllocateNothing(t *testing.T) {
	const warm, runs = 64, 200
	t.Run("sleep", func(t *testing.T) {
		var allocs float64
		err := NewSimEnv().Run(1, func(p *Proc) {
			for range warm {
				p.Sleep(1)
			}
			allocs = testing.AllocsPerRun(runs, func() { p.Sleep(1) })
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Fatalf("Sleep(1) allocates %.2f times per call", allocs)
		}
	})
	t.Run("pingpong", func(t *testing.T) {
		e := NewSimEnv()
		var mu sync.Mutex
		gate := e.NewGate(&mu)
		turn := 0
		// hit hands the turn to the other rank and waits for it back.
		hit := func(p *Proc) {
			me := p.Rank()
			mu.Lock()
			for turn != me {
				gate.Wait(p)
			}
			turn = 1 - me
			gate.Broadcast()
			mu.Unlock()
		}
		var allocs float64
		err := e.Run(2, func(p *Proc) {
			if p.Rank() == 1 {
				// AllocsPerRun calls its function once more to warm up.
				for range warm + runs + 1 {
					hit(p)
				}
				return
			}
			for range warm {
				hit(p)
			}
			allocs = testing.AllocsPerRun(runs, func() { hit(p) })
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Fatalf("gate ping-pong allocates %.2f times per round", allocs)
		}
	})
}

// TestSimDeadlockOnRankGoroutine: the event loop runs on whichever goroutine
// holds the baton, so the empty queue that means deadlock is found by a
// rank — the last one to park, or the last one to finish. Either way Run
// returns a *DeadlockError naming every parked rank, and unwinds them all
// so no rank goroutine outlives the run.
func TestSimDeadlockOnRankGoroutine(t *testing.T) {
	for _, last := range []string{"park", "exit"} {
		t.Run(last, func(t *testing.T) {
			before := goruntime.NumGoroutine()
			e := NewSimEnv()
			var mu sync.Mutex
			gate := e.NewGate(&mu)
			err := e.Run(3, func(p *Proc) {
				if p.Rank() == 2 {
					p.Sleep(10) // park or exit after the others are parked
					if last == "exit" {
						return
					}
				}
				mu.Lock()
				defer mu.Unlock()
				gate.Wait(p) // nobody ever broadcasts
			})
			de, ok := err.(*DeadlockError)
			if !ok {
				t.Fatalf("err = %v, want *DeadlockError", err)
			}
			want := []string{"rank 0 (gate)", "rank 1 (gate)", "rank 2 (gate)"}
			if last == "exit" {
				want = want[:2]
			}
			if strings.Join(de.Parked, ",") != strings.Join(want, ",") {
				t.Fatalf("parked = %q, want %q", de.Parked, want)
			}
			// A rank's coroutine ends once Run has unwound it.
			deadline := time.Now().Add(5 * time.Second)
			for goruntime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the run, %d before", goruntime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// waitGoroutinesAtMost fails t unless the goroutine count drops to n
// within a few seconds.
func waitGoroutinesAtMost(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", goruntime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSimRunEndsLeaveNoGoroutine: however a run ends early — a rank's
// panic, an event callback's panic, a deadlock — Run returns that error
// after resuming every parked rank once, so each unwinds and its coroutine
// ends. Ranks 0 and 2 are parked on a gate nobody broadcasts when rank 1
// ends the run.
func TestSimRunEndsLeaveNoGoroutine(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rank1 func(e *SimEnv, p *Proc)
		want  string
	}{
		{"rank panic", func(e *SimEnv, p *Proc) { panic("rank exploded") }, "rank 1 panicked: rank exploded"},
		{"event panic", func(e *SimEnv, p *Proc) {
			e.Schedule(5, PrioDelivery, func() { panic("event exploded") })
			p.Sleep(10)
		}, "event panicked at 0.015us: event exploded"},
		{"deadlock", func(e *SimEnv, p *Proc) {}, "simulation deadlock: 2 rank(s) parked: rank 0 (gate), rank 2 (gate)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := goruntime.NumGoroutine()
			e := NewSimEnv()
			var mu sync.Mutex
			gate := e.NewGate(&mu)
			unwound := 0
			err := e.Run(3, func(p *Proc) {
				if p.Rank() == 1 {
					p.Sleep(10) // the others park first
					tc.rank1(e, p)
					return
				}
				defer func() { unwound++ }()
				mu.Lock()
				defer mu.Unlock()
				gate.Wait(p)
			})
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to start %q", err, tc.want)
			}
			if unwound != 2 {
				t.Fatalf("%d of the 2 parked ranks unwound", unwound)
			}
			waitGoroutinesAtMost(t, before)
		})
	}
}

// TestSimRankGoexitReraisedOnCaller pins what a rank body's
// runtime.Goexit (t.FailNow calls it) does: the run ends, the other ranks
// unwind as after a panic — parked or not yet started — and Run re-raises
// the Goexit on its caller's goroutine instead of returning. No rank
// goroutine outlives it.
func TestSimRankGoexitReraisedOnCaller(t *testing.T) {
	for _, at := range []string{"start", "after park"} {
		t.Run(at, func(t *testing.T) {
			before := goruntime.NumGoroutine()
			unwound, returned := 0, false
			done := make(chan struct{})
			go func() {
				defer close(done)
				e := NewSimEnv()
				var mu sync.Mutex
				gate := e.NewGate(&mu)
				e.Run(3, func(p *Proc) {
					if p.Rank() == 0 {
						if at == "after park" {
							p.Sleep(10)
						}
						goruntime.Goexit()
					}
					defer func() { unwound++ }()
					mu.Lock()
					defer mu.Unlock()
					gate.Wait(p)
				})
				returned = true
			}()
			<-done
			if returned {
				t.Fatal("Run returned after a rank called runtime.Goexit")
			}
			want := 2 // both parked ranks unwind
			if at == "start" {
				want = 0 // ranks 1 and 2 unwind before their bodies run
			}
			if unwound != want {
				t.Fatalf("%d ranks unwound through their defers, want %d", unwound, want)
			}
			waitGoroutinesAtMost(t, before)
		})
	}
}

// BenchmarkSimRingPass: 16 ranks pass a turn around a ring, each parked on
// its own gate until the turn reaches it, so every pass is a wake of
// another rank — one baton pass (ns/op is per pass).
func BenchmarkSimRingPass(b *testing.B) {
	const ranks = 16
	e := NewSimEnv()
	var mu sync.Mutex
	gates := make([]Gate, ranks)
	for i := range gates {
		gates[i] = e.NewGate(&mu)
	}
	turn, passes, done := 0, 0, false
	b.ResetTimer()
	err := e.Run(ranks, func(p *Proc) {
		me := p.Rank()
		mu.Lock()
		defer mu.Unlock()
		for !done {
			switch {
			case turn != me:
				gates[me].Wait(p)
			case passes == b.N:
				done = true
				for _, g := range gates {
					g.Broadcast()
				}
			default:
				passes++
				turn = (me + 1) % ranks
				gates[turn].Broadcast()
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
