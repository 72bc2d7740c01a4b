//go:build linux

package netfab

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// refusedPair starts two ranks, each first set up by setup, whose rank 1
// parks its reader inside rx on the first KindGetResp until release is
// called, hands on the OpID of every KindGetResp to got, and logs every
// peerDown of either rank.
func refusedPair(t *testing.T, got chan<- uint64, setup func(*Mesh)) (meshes []*Mesh, release func(), log *downLog) {
	t.Helper()
	meshes = tcpMeshes(t, 2)
	for _, m := range meshes {
		setup(m)
	}
	log = new(downLog)
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	parked := false
	meshes[1].Start(func(from int, fr *wire.Frame) {
		if fr.Kind != wire.KindGetResp {
			return
		}
		if !parked {
			parked = true
			<-gate
		}
		got <- fr.OpID
	}, log.hook(1))
	meshes[0].Start(func(int, *wire.Frame) {}, log.hook(0))
	return meshes, release, log
}

// fillUntilRefused replies to rank 1 from rank 0 until rank 0's socket
// refuses the queue with 1 MiB of it left (a lone refusal can be a window
// update away from taking everything), and returns how many replies it
// made and when it made the first.
func fillUntilRefused(t *testing.T, m *Mesh) (frames int, first time.Time) {
	t.Helper()
	const frameBytes, most, left = 16 << 10, 4096, 1 << 20 // at most 64 MiB
	p := m.peers[1]
	fr := &wire.Frame{Kind: wire.KindGetResp, Origin: 0, Target: 1, Data: make([]byte, frameBytes)}
	first = time.Now()
	for frames < most {
		fr.OpID = uint64(frames)
		if err := m.SendReply(1, fr); err != nil {
			t.Fatal(err)
		}
		frames++
		p.mu.Lock()
		refused := p.outArmed && p.pendingBytes >= left
		p.mu.Unlock()
		if refused {
			return frames, first
		}
	}
	t.Fatalf("the socket took %d replies to a parked reader and never refused one", frames)
	return
}

// TestRefusedQueueDrainsOnResume: rank 1 parks its reader until rank 0's
// socket refuses rank 0's queue, which arms EPOLLOUT. Once rank 1 resumes,
// the queue drains with no further Send and no beat (the interval is an
// hour): every reply arrives in order, EPOLLOUT is disarmed and nobody is
// convicted.
func TestRefusedQueueDrainsOnResume(t *testing.T) {
	got := make(chan uint64, 4096)
	meshes, release, log := refusedPair(t, got, func(m *Mesh) { m.hb.Interval = time.Hour })
	defer func() {
		release()
		for _, m := range meshes {
			m.Close(false)
		}
	}()

	frames, _ := fillUntilRefused(t, meshes[0])
	release()
	for i := 0; i < frames; i++ {
		select {
		case id := <-got:
			if id != uint64(i) {
				t.Fatalf("reply %d arrived in position %d", id, i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d refused replies arrived after the reader resumed", i, frames)
		}
	}
	p := meshes[0].peers[1]
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		armed, pending := p.outArmed, p.pendingBytes
		p.mu.Unlock()
		if !armed && pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue drained to the peer but EPOLLOUT armed=%v with %d bytes pending", armed, pending)
		}
		time.Sleep(time.Millisecond)
	}
	if downs := log.snapshot(); len(downs) != 0 {
		t.Fatalf("a refused queue convicted peers: %v", downs)
	}
}

// TestRefusedQueueConvictsAfterWriteTimeout: rank 1 parks its reader past
// rank 0's WriteTimeout while its beat loop keeps beating, so only the
// refused queue tells rank 0 that rank 1 stopped draining. Rank 0 must
// convict rank 1 through peerDown, no sooner than WriteTimeout after its
// first reply.
func TestRefusedQueueConvictsAfterWriteTimeout(t *testing.T) {
	writeTimeout := 2 * testBeat.Timeout
	got := make(chan uint64, 4096)
	meshes, release, log := refusedPair(t, got, func(m *Mesh) {
		m.hb = testBeat
		m.cfg.WriteTimeout = writeTimeout
	})
	defer func() {
		release()
		for _, m := range meshes {
			m.Close(false)
		}
	}()

	_, first := fillUntilRefused(t, meshes[0])
	deadline := time.Now().Add(writeTimeout + 5*time.Second)
	for {
		var convicted []down
		for _, d := range log.snapshot() {
			if d.observer == 0 {
				convicted = append(convicted, d)
			}
		}
		if len(convicted) > 0 {
			d := convicted[0]
			if len(convicted) != 1 || d.failed != 1 || !strings.Contains(d.err.Error(), "took no byte") {
				t.Fatalf("rank 0's peerDowns %v: want rank 1 only, for its refused queue", convicted)
			}
			if since := d.at.Sub(first); since < writeTimeout {
				t.Fatalf("rank 1 convicted %v after rank 0's first reply, before WriteTimeout %v", since, writeTimeout)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank 0 never convicted rank 1, whose socket refused its queue past WriteTimeout %v", writeTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}
