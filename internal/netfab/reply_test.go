package netfab

import (
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestSendReplyToStalledPeerQueues is the never-park rule at the link:
// rank 1's reader sits inside its rx callback, so nothing it is sent is
// read, and rank 0 replies with four times txMaxPending — far beyond what
// the socket buffers hold. Every SendReply must return at once (a Send
// would block on the bound), the overshoot must show in
// ReplyQueuedHighWater, and once the reader resumes every reply must
// arrive, in order, intact.
func TestSendReplyToStalledPeerQueues(t *testing.T) {
	const (
		frameBytes = 256 << 10
		frames     = 4 * txMaxPending / frameBytes
	)
	meshes := tcpMeshes(t, 2)
	defer func() {
		for _, m := range meshes {
			m.Close(false)
		}
	}()

	release := make(chan struct{})
	var once sync.Once
	resume := func() { once.Do(func() { close(release) }) }
	defer resume() // runs before the closes: Close waits for the reader
	got := make(chan uint64, frames+1)
	meshes[1].Start(func(from int, fr *wire.Frame) {
		if fr.Kind != wire.KindGetResp {
			return
		}
		if fr.OpID == 0 {
			<-release // park the reader on the first reply
		}
		for i, b := range fr.Data {
			if b != byte(int(fr.OpID)+i) {
				t.Errorf("reply %d: byte %d is %d", fr.OpID, i, b)
				break
			}
		}
		got <- fr.OpID
	}, func(int, error) {})
	meshes[0].Start(func(int, *wire.Frame) {}, func(rank int, err error) {
		t.Errorf("peerDown(%d): %v", rank, err)
	})

	sent := make(chan error, 1)
	go func() {
		data := make([]byte, frameBytes)
		for i := 0; i < frames; i++ {
			for k := range data {
				data[k] = byte(i + k)
			}
			fr := &wire.Frame{Kind: wire.KindGetResp, Origin: 0, Target: 1, OpID: uint64(i), Data: data}
			if err := meshes[0].SendReply(1, fr); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%d replies to a stalled reader still sending after 5 s: SendReply parked", frames)
	}
	if hw := meshes[0].ReadStats().ReplyQueuedHighWater; hw == 0 {
		t.Errorf("ReplyQueuedHighWater = 0 after queueing %d bytes past a stalled reader", frames*frameBytes)
	}

	resume()
	for i := 0; i < frames; i++ {
		select {
		case id := <-got:
			if id != uint64(i) {
				t.Fatalf("reply %d arrived in position %d", id, i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d replies arrived after the reader resumed", i, frames)
		}
	}
}
