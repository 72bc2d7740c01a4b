package fabric

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/exec"
)

// seqHdr tags a test message with its class and per-class sequence number
// so consumers can check FIFO order.
func seqHdr(class, seq int) MsgHdr { return MsgHdr{class, seq} }

// TestMsgClassFIFOProperty sends a random interleaving of messages across
// several classes and checks, under both engines, that (a) each class is
// consumed in its own arrival order whichever way the consumer alternates
// between PollMsgClass and WaitMsgClass (the poll→wait handover), and (b)
// a multi-class pop sees the global arrival order.
func TestMsgClassFIFOProperty(t *testing.T) {
	const (
		classes  = 4
		perClass = 40
		base     = 300
	)
	runBoth(t, 2, func(f *Fabric, p *exec.Proc) {
		nic := f.NIC(p.Rank())
		if p.Rank() == 0 {
			// Deterministic shuffle of per-class sequences: same schedule
			// under both engines.
			rng := rand.New(rand.NewSource(7))
			next := make([]int, classes)
			order := make([]int, 0, classes*perClass)
			for c := 0; c < classes; c++ {
				for i := 0; i < perClass; i++ {
					order = append(order, c)
				}
			}
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, c := range order {
				nic.PostMsg(p, 1, base+c, seqHdr(c, next[c]), nil, false)
				next[c]++
			}
			nic.PostMsg(p, 1, base+classes, MsgHdr{}, nil, false)
			return
		}
		// Consume half the classes per-class (mixing poll and wait), the
		// other half through one multi-class wait.
		rng := rand.New(rand.NewSource(11))
		for c := 0; c < classes/2; c++ {
			for i := 0; i < perClass; i++ {
				var m *Msg
				if rng.Intn(2) == 0 {
					m = nic.WaitMsgClass(p, base+c)
				} else if got, ok := nic.PollMsgClass(base + c); ok {
					m = got
				} else {
					// Poll missed: hand over to a blocking wait.
					m = nic.WaitMsgClass(p, base+c)
				}
				if m.Hdr != seqHdr(c, i) {
					t.Errorf("class %d: got %v, want seq %d", c, m.Hdr, i)
					return
				}
			}
		}
		multi := make([]int, 0, classes/2)
		for c := classes / 2; c < classes; c++ {
			multi = append(multi, base+c)
		}
		// The multi-class wait must interleave the remaining buckets in
		// arrival order: per-class sequence numbers stay monotone.
		seen := make([]int, classes)
		for i := 0; i < (classes-classes/2)*perClass; i++ {
			m := nic.WaitMsgClasses(p, multi...)
			class, seq := m.Hdr[0], m.Hdr[1]
			if seq != seen[class] {
				t.Errorf("multi-class pop: class %d seq %d, want %d", class, seq, seen[class])
				return
			}
			seen[class]++
		}
		if m := nic.WaitMsgClass(p, base+classes); m.Hdr != (MsgHdr{}) {
			t.Errorf("trailer = %v", m.Hdr)
		}
		if d := nic.MsgDepth(); d != 0 {
			t.Errorf("residual depth %d", d)
		}
	})
}

// TestMsgClassArrivalOrderAcrossClasses checks that PollMsgClasses merges
// class FIFOs by arrival sequence, not by class id.
func TestMsgClassArrivalOrderAcrossClasses(t *testing.T) {
	runBoth(t, 2, func(f *Fabric, p *exec.Proc) {
		nic := f.NIC(p.Rank())
		if p.Rank() == 0 {
			nic.PostMsg(p, 1, 52, MsgHdr{1}, nil, false) // higher class, earlier arrival
			nic.PostMsg(p, 1, 51, MsgHdr{2}, nil, false) // lower class, later arrival
			nic.PostMsg(p, 1, 59, MsgHdr{}, nil, false)
			return
		}
		nic.WaitMsgClass(p, 59)
		m, ok := nic.PollMsgClasses(51, 52)
		if !ok || m.Hdr[0] != 1 {
			t.Fatalf("first multi-class pop = %v ok=%v", m, ok)
		}
		m, ok = nic.PollMsgClasses(51, 52)
		if !ok || m.Hdr[0] != 2 {
			t.Fatalf("second multi-class pop = %v ok=%v", m, ok)
		}
	})
}

// TestMsgWaitersDistinctClassesStress parks many concurrent waiters on
// distinct classes of one NIC under the Real engine and checks that each
// waiter receives exactly its own class's messages, in order, while a
// producer floods the classes in random interleaving. Run with -race this
// exercises the per-class gate registration against concurrent deliveries
// and the waiter-record pool.
func TestMsgWaitersDistinctClassesStress(t *testing.T) {
	const (
		waiters  = 16
		perClass = 50
		base     = 400
	)
	env := exec.New(exec.Real)
	f := New(env, DefaultConfig(2))
	defer f.Close()
	err := env.Run(2, func(p *exec.Proc) {
		nic := f.NIC(p.Rank())
		if p.Rank() == 0 {
			rng := rand.New(rand.NewSource(3))
			order := make([]int, 0, waiters*perClass)
			for w := 0; w < waiters; w++ {
				for i := 0; i < perClass; i++ {
					order = append(order, w)
				}
			}
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			next := make([]int, waiters)
			for _, w := range order {
				nic.PostMsg(p, 1, base+w, seqHdr(w, next[w]), nil, false)
				next[w]++
			}
			return
		}
		// Real engine: goroutines within one rank may block on NIC gates
		// concurrently (realGate is multi-waiter safe).
		var wg sync.WaitGroup
		errs := make(chan error, waiters)
		for w := 0; w < waiters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perClass; i++ {
					m := nic.WaitMsgClass(p, base+w)
					if m.Hdr != seqHdr(w, i) {
						errs <- fmt.Errorf("waiter %d: got %v, want seq %d", w, m.Hdr, i)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
		if d := nic.MsgDepth(); d != 0 {
			t.Errorf("residual depth %d", d)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPostMsgHeaderNotBoxed pins the cost of a message's header: the three
// words travel by value inside the Msg, so one posted-and-consumed message
// allocates the Msg and nothing else (an interface-typed header would box
// a second allocation per message).
func TestPostMsgHeaderNotBoxed(t *testing.T) {
	env := exec.New(exec.Real)
	f := New(env, DefaultConfig(1))
	defer f.Close()
	err := env.Run(1, func(p *exec.Proc) {
		nic := f.NIC(0)
		roundTrip := func() {
			nic.PostMsg(p, 0, 7, MsgHdr{-1, 1 << 62, 3}, nil, false)
			if _, ok := nic.PollMsgClass(7); !ok { // a self-send commits before PostMsg returns
				panic("self-sent message not queued on return")
			}
		}
		for i := 0; i < 64; i++ {
			roundTrip() // warm the packet pool and the class queue
		}
		if avg := testing.AllocsPerRun(200, roundTrip); avg >= 2 {
			t.Errorf("a posted message allocates %.2f allocs/op, want 1 (the Msg)", avg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
