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
			// A rank's goroutine ends just after it passes the baton back.
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
