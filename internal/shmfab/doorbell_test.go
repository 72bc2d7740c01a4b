package shmfab

import (
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestDoorbellLostWakeupStress runs a 3-rank mesh in which rank 0 takes
// pings from ranks 1 and 2 and acks each one (SendReply). Between random
// compute gaps of 0–1 ms, which outlast the poller's spin window so it
// sleeps on both doorbells at once, rank 0 waits for the next ping in one
// of two ways, chosen at random: as a rank blocked in a gate wait does
// (it drives its rings for waiterTries Progress calls, then blocks until
// the poller delivers), or as a passive target that never drives, so the
// poller alone must wake, also right after a drive that found its ping.
// Each sender waits for its ack before the next ping, so a lost ring on
// any word stalls the run past its deadline. (A missing resume or kick
// after a given-up drive would only delay a delivery until the poller's
// nap ends or the next ring.)
func TestDoorbellLostWakeupStress(t *testing.T) {
	const (
		pings = 150 // per sender
		tries = 50  // exec.waiterTries
	)
	segs := map[[2]int]*Segment{}
	mesh := make([]*Mesh, 3)
	for r := range mesh {
		cfg := Config{Self: r, N: 3, Segments: make([]*Segment, 3)}
		for q := range 3 {
			if q == r {
				continue
			}
			key := [2]int{min(r, q), max(r, q)}
			if segs[key] == nil {
				segs[key] = NewHeapSegment(key[0], key[1])
			}
			cfg.Segments[q] = segs[key]
		}
		m, err := Attach(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mesh[r] = m
	}
	var (
		got     atomic.Int64             // pings rank 0 consumed
		next    [3]uint64                // next OpID rank 0 expects per sender
		arrived = make(chan struct{}, 1) // rank 0's gate
		acks    [3]chan uint64
		fail    = make(chan string, 4)
	)
	mesh[0].Start(func(from int, fr *wire.Frame) {
		if fr.OpID != next[from] {
			fail <- "rank 0 saw pings out of order"
		}
		next[from]++
		ack := &wire.Frame{Kind: wire.KindAck, Origin: 0, Target: from, OpID: fr.OpID}
		if err := mesh[0].SendReply(from, ack); err != nil {
			fail <- err.Error()
		}
		got.Add(1)
		select {
		case arrived <- struct{}{}:
		default:
		}
	}, func(int, error) { fail <- "rank 0 lost a peer" })
	for r := 1; r <= 2; r++ {
		acks[r] = make(chan uint64, pings)
		mesh[r].Start(func(_ int, fr *wire.Frame) { acks[r] <- fr.OpID },
			func(int, error) { fail <- "a sender lost rank 0" })
	}

	deadline := time.After(60 * time.Second)
	done := make(chan struct{})
	for r := 1; r <= 2; r++ {
		go func() {
			rng := rand.New(rand.NewPCG(uint64(r), 7))
			data := make([]byte, 8)
			for i := range uint64(pings) {
				time.Sleep(time.Duration(rng.IntN(1000)) * time.Microsecond)
				fr := &wire.Frame{Kind: wire.KindPut, Origin: r, Target: 0, WireSize: len(data), OpID: i, Data: data}
				if err := mesh[r].Send(0, fr); err != nil {
					fail <- err.Error()
					return
				}
				if <-acks[r] != i {
					fail <- "a sender got acks out of order"
					return
				}
			}
		}()
	}
	go func() {
		defer close(done)
		rng := rand.New(rand.NewPCG(0, 7))
		for seen := int64(0); seen < 2*pings; seen = got.Load() {
			if rng.IntN(2) == 0 {
				time.Sleep(time.Duration(rng.IntN(1000)) * time.Microsecond)
			}
			if rng.IntN(2) == 0 {
				for got.Load() == seen {
					<-arrived
				}
				continue
			}
			mesh[0].BeginDrive()
			found := false
			for i := 0; i < tries && !found; i++ {
				mesh[0].Progress()
				found = got.Load() > seen
			}
			mesh[0].EndDrive(found)
			for !found && got.Load() == seen {
				<-arrived
			}
		}
	}()
	select {
	case <-done:
	case msg := <-fail:
		t.Fatal(msg)
	case <-deadline:
		for r, m := range mesh {
			t.Logf("rank %d: %+v", r, m.ReadStats())
		}
		t.Fatalf("stalled with %d of %d pings delivered: a wakeup was lost", got.Load(), 2*pings)
	}
	st := mesh[0].ReadStats()
	if st.Parks == 0 {
		t.Errorf("rank 0's poller never slept: %+v", st)
	}
	if mesh[1].ReadStats().Rings+mesh[2].ReadStats().Rings == 0 {
		t.Error("no sender ever rang rank 0's doorbell")
	}
	var wg sync.WaitGroup
	for _, m := range mesh {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Close(true)
		}()
	}
	wg.Wait()
}

// TestDoorbellPathsAllocateNothing pins the doorbell and the drive
// bracket at 0 allocations: a publish that rings a sleeping consumer, a
// drive that gives up and kicks it, and drives beside a poller that
// stepped aside, one that finds its entry and one that gives up and
// resumes the poller. No poller runs; the test goroutine consumes.
func TestDoorbellPathsAllocateNothing(t *testing.T) {
	m0, m1 := heapPair(t, nil)
	m1.rx = func(int, *wire.Frame) {}
	fr := &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, WireSize: 8, OpID: 1, Data: make([]byte, 8)}
	m1.parked.Store(true) // as if m1's poller slept on the doorbell
	n := testing.AllocsPerRun(100, func() {
		atomic.StoreUint32(m1.bells[0], bellArmed)
		m0.Send(1, fr) // armed: rings
		m1.Progress()
		m1.BeginDrive()
		m1.EndDrive(false) // given up: kick
	})
	if n != 0 {
		t.Fatalf("doorbell ring and kick allocate %.1f times per round", n)
	}
	if r := m0.ReadStats().Rings; r != 101 {
		t.Fatalf("Rings = %d, want one per round (101)", r)
	}
	if w := atomic.LoadUint32(m1.bells[0]); w != bellKicked {
		t.Fatalf("doorbell word after a kick = %d, want %d", w, bellKicked)
	}
	m1.parked.Store(false)
	m1.aside.Store(true) // as if m1's poller stepped aside
	n = testing.AllocsPerRun(100, func() {
		m1.BeginDrive()
		m0.Send(1, fr)
		m1.Progress()
		m1.EndDrive(true) // found: the poller stays aside
		m1.BeginDrive()
		m1.EndDrive(false) // given up: resume
		<-m1.resume
	})
	if n != 0 {
		t.Fatalf("drive bracket beside a stepped-aside poller allocates %.1f times per round", n)
	}
	if r := m0.ReadStats().Rings; r != 101 {
		t.Fatalf("Rings = %d after drives beside a stepped-aside poller, want still 101", r)
	}
	m0.Close(false)
	m1.Close(false)
}

// TestDoorbellFallbackSleep: without futex_waitv the poller sleeps in
// pollBells, which returns once any word, not only the first, is no
// longer armed, and otherwise after its millisecond bound.
func TestDoorbellFallbackSleep(t *testing.T) {
	words := []*uint32{new(uint32), new(uint32), new(uint32)}
	for _, w := range words {
		*w = bellArmed
	}
	start := time.Now()
	pollBells(words)
	if d := time.Since(start); d < time.Millisecond || d > 10*time.Second {
		t.Fatalf("pollBells over armed words returned after %v, want its 1 ms bound", d)
	}
	atomic.StoreUint32(words[2], bellRung)
	start = time.Now()
	pollBells(words)
	if d := time.Since(start); d >= time.Millisecond {
		t.Fatalf("pollBells slept %v through a ring on its last word", d)
	}
}

// TestAttachRefusesTooManyRings: the poller sleeps on every inbound
// doorbell in one futex_waitv, so a mesh with more inbound rings than it
// takes is refused with a RingLimitError before any segment is checked.
func TestAttachRefusesTooManyRings(t *testing.T) {
	n := MaxInboundRings + 2
	_, err := Attach(Config{Self: 0, N: n, Segments: make([]*Segment, n)})
	var rl *RingLimitError
	if !errors.As(err, &rl) || rl.Rings != n-1 {
		t.Fatalf("Attach of %d ranks: err = %v, want a RingLimitError for %d rings", n, err, n-1)
	}
	n--
	if _, err := Attach(Config{Self: 0, N: n, Segments: make([]*Segment, n)}); errors.As(err, &rl) {
		t.Fatalf("Attach of %d ranks (%d rings) refused for the ring limit: %v", n, n-1, err)
	}
}
