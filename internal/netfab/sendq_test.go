//go:build linux

package netfab

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// queuePair bootstraps two ranks with no Beat frames (TxFlushes then counts
// data frames only) and starts them. Rank 1 hands every KindPut it receives
// to puts, and fails the test for one that follows rank 0's Bye; rank 0
// signals woke for every frame it receives (wake sends one).
func queuePair(t *testing.T, puts chan<- *wire.Frame) (meshes []*Mesh, woke chan struct{}) {
	t.Helper()
	meshes = tcpMeshes(t, 2)
	for _, m := range meshes {
		m.hb.Interval = time.Hour
	}
	woke = make(chan struct{}, 1)
	peerDown := func(rank int, err error) { t.Errorf("peerDown(%d): %v", rank, err) }
	meshes[1].Start(func(from int, fr *wire.Frame) {
		if fr.Kind == wire.KindPut {
			p := meshes[1].peers[0]
			p.mu.Lock()
			if p.bye {
				t.Errorf("put %d delivered after the Bye", fr.OpID)
			}
			p.mu.Unlock()
			c := *fr
			c.Data = append([]byte(nil), fr.Data...)
			puts <- &c
		}
	}, peerDown)
	meshes[0].Start(func(int, *wire.Frame) {
		select {
		case woke <- struct{}{}:
		default:
		}
	}, peerDown)
	return meshes, woke
}

// wake has rank 1 send rank 0 one frame and waits until rank 0 got it: rank
// 0's poller then spins for pollSpin, so its Sends queue.
func wake(t *testing.T, meshes []*Mesh, woke <-chan struct{}) {
	t.Helper()
	if err := meshes[1].Send(0, &wire.Frame{Kind: wire.KindCtrl, Origin: 1, Target: 0}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("wake frame never arrived")
	}
}

// settledStats polls m's counters until want frames are counted sent: a
// flush commits them after its write returns, which can trail the
// receiver's delivery.
func settledStats(m *Mesh, want uint64) Stats {
	deadline := time.Now().Add(5 * time.Second)
	st := m.ReadStats()
	for st.FramesSent < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		st = m.ReadStats()
	}
	return st
}

// TestQueuedOrderAndPayloadTCP is TestBatchedOrderAndPayload on real
// sockets: 8 concurrent senders, frames from 8 B to past txChunkSize, and
// pauses that straddle pollSpin while rank 1 wakes rank 0's poller at
// random intervals around it, so Sends meet the poller spinning, parking
// and waking. Every frame must arrive byte-exact in per-sender order; a
// frame a Send queues that no flush takes is stranded, and the test times
// out.
func TestQueuedOrderAndPayloadTCP(t *testing.T) {
	const (
		senders   = 8
		perSender = 400
	)
	puts := make(chan *wire.Frame, senders*perSender)
	meshes, woke := queuePair(t, puts)
	defer closeAll(meshes)

	payload := func(sender, index, size int) []byte {
		b := make([]byte, size)
		binary.LittleEndian.PutUint32(b, uint32(sender))
		binary.LittleEndian.PutUint32(b[4:], uint32(index))
		for i := 8; i < size; i++ {
			b[i] = byte(sender*31 + index + i)
		}
		return b
	}
	sizes := []int{8, 100, 8, 4096, 23, 8, 16384, 8, 70000, 8}

	wake(t, meshes, woke)
	done := make(chan struct{})
	waker := make(chan struct{})
	go func() {
		defer close(waker)
		rng := rand.New(rand.NewSource(senders))
		for {
			select {
			case <-done:
				return
			case <-time.After(pollSpin/2 + time.Duration(rng.Int63n(int64(pollSpin)))):
			}
			if err := meshes[1].Send(0, &wire.Frame{Kind: wire.KindCtrl, Origin: 1, Target: 0}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for i := 0; i < perSender; i++ {
				if i%50 == 49 {
					time.Sleep(time.Duration(rng.Int63n(int64(2 * pollSpin))))
				}
				fr := &wire.Frame{
					Kind: wire.KindPut, Origin: 0, Target: 1,
					OpID: uint64(s), Operand: uint64(i),
					Data: payload(s, i, sizes[(s+i)%len(sizes)]),
				}
				if err := meshes[0].Send(1, fr); err != nil {
					t.Errorf("sender %d frame %d: %v", s, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	<-waker

	next := make([]int, senders)
	deadline := time.After(20 * time.Second)
	for total := 0; total < senders*perSender; total++ {
		var fr *wire.Frame
		select {
		case fr = <-puts:
		case <-deadline:
			t.Fatalf("received %d/%d frames before timeout: a queued frame was stranded", total, senders*perSender)
		}
		s, i := int(fr.OpID), int(fr.Operand)
		if s < 0 || s >= senders {
			t.Fatalf("frame names sender %d", s)
		}
		if i != next[s] {
			t.Fatalf("sender %d: got index %d, want %d (FIFO order violated)", s, i, next[s])
		}
		next[s]++
		if want := payload(s, i, sizes[(s+i)%len(sizes)]); string(fr.Data) != string(want) {
			t.Fatalf("sender %d frame %d: payload corrupt (%d bytes, want %d)", s, i, len(fr.Data), len(want))
		}
	}
}

// TestQueuedSendsBatch: 256 Sends of 4 KiB from one goroutine to a rank
// whose poller spins leave in at most 32 writes. Writing each Send at once
// takes 256.
func TestQueuedSendsBatch(t *testing.T) {
	const frames = 256
	puts := make(chan *wire.Frame, frames)
	meshes, woke := queuePair(t, puts)
	defer closeAll(meshes)

	before := meshes[0].ReadStats()
	fr := &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, Data: make([]byte, 4096)}
	for i := 0; i < frames; i++ {
		if meshes[0].pollParked.Load() {
			wake(t, meshes, woke) // a descheduled sender let the poller park
		}
		fr.OpID = uint64(i)
		if err := meshes[0].Send(1, fr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < frames; i++ {
		select {
		case got := <-puts:
			if got.OpID != uint64(i) {
				t.Fatalf("frame %d arrived in position %d", got.OpID, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d frames arrived", i, frames)
		}
	}
	after := settledStats(meshes[0], before.FramesSent+frames)
	if n := after.TxFlushes - before.TxFlushes; n > frames/8 {
		t.Errorf("%d Sends of 4 KiB took %d writes, want at most %d; frames-per-write histogram %v",
			frames, n, frames/8, after.TxCoalesce)
	}
}

// TestQueuedSendLeavesOnEmptyRound: one 8 B Send queued behind a spinning
// poller, with no beat, no reply and no later Send to carry it, arrives
// within 100 ms. Only the poller's empty-round flush writes it.
func TestQueuedSendLeavesOnEmptyRound(t *testing.T) {
	puts := make(chan *wire.Frame, 1)
	meshes, woke := queuePair(t, puts)
	defer closeAll(meshes)

	wake(t, meshes, woke)
	if err := meshes[0].Send(1, &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, Data: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-puts:
	case <-time.After(100 * time.Millisecond):
		t.Fatal("a queued 8 B Send did not arrive within 100 ms: nothing flushed the queue")
	}
}

// TestSendWritesWhileParked: once the mesh has been idle past pollSpin the
// poller sleeps in a blocking wait, and a Send writes its frame before it
// returns.
func TestSendWritesWhileParked(t *testing.T) {
	puts := make(chan *wire.Frame, 1)
	meshes, _ := queuePair(t, puts)
	defer closeAll(meshes)

	time.Sleep(2 * pollSpin)
	for deadline := time.Now().Add(5 * time.Second); !meshes[0].pollParked.Load(); {
		if time.Now().After(deadline) {
			t.Fatal("the poller of a mesh idle for 5 s never parked")
		}
		time.Sleep(time.Millisecond)
	}
	before := meshes[0].ReadStats().TxFlushes
	if err := meshes[0].Send(1, &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, Data: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	if n := meshes[0].ReadStats().TxFlushes - before; n != 1 {
		t.Errorf("Send to a sleeping poller's mesh made %d writes before returning, want 1", n)
	}
	select {
	case <-puts:
	case <-time.After(5 * time.Second):
		t.Fatal("the frame never arrived")
	}
}

// TestQueuedSendsPrecedeBye: frames queued behind a spinning poller when a
// graceful Close starts all arrive, and before the Bye (queuePair checks
// each delivery).
func TestQueuedSendsPrecedeBye(t *testing.T) {
	const frames = 64
	puts := make(chan *wire.Frame, frames)
	meshes, woke := queuePair(t, puts)

	wake(t, meshes, woke)
	fr := &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, Data: make([]byte, 100)}
	for i := 0; i < frames; i++ {
		fr.OpID = uint64(i)
		if err := meshes[0].Send(1, fr); err != nil {
			t.Fatal(err)
		}
	}
	closeAll(meshes)

	rx := meshes[1].peers[0]
	rx.mu.Lock()
	bye := rx.bye
	rx.mu.Unlock()
	if !bye {
		t.Error("rank 1 never saw rank 0's Bye")
	}
	close(puts)
	got := 0
	for p := range puts {
		if p.OpID != uint64(got) {
			t.Fatalf("frame %d arrived in position %d", p.OpID, got)
		}
		got++
	}
	if got != frames {
		t.Fatalf("%d of %d frames queued before Close arrived", got, frames)
	}
}
