//go:build linux

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

// TestRepliesBatchPerRead is one write per read: rank 1's reader parks
// inside the first frame of a burst while the rest piles up in its socket,
// then answers every frame with one SendReply. The replies to what one
// buffer held must leave together — at most one write per four replies —
// and arrive in order.
func TestRepliesBatchPerRead(t *testing.T) {
	const frames = 256
	meshes := tcpMeshes(t, 2)
	for _, m := range meshes {
		m.hb.Interval = time.Hour // no Beat frames: TxFlushes counts replies only
	}
	defer closeAll(meshes)
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	resume := func() { once.Do(func() { close(release) }) }
	defer resume() // runs before closeAll: Close waits for the reader

	peerDown := func(rank int, err error) { t.Errorf("peerDown(%d): %v", rank, err) }
	meshes[1].Start(func(from int, fr *wire.Frame) {
		if fr.OpID == 0 {
			close(parked)
			<-release
		}
		ack := wire.Frame{Kind: wire.KindAck, Origin: 1, Target: 0, OpID: fr.OpID}
		if err := meshes[1].SendReply(0, &ack); err != nil {
			t.Error(err)
		}
	}, peerDown)
	got := make(chan uint64, frames)
	meshes[0].Start(func(from int, fr *wire.Frame) { got <- fr.OpID }, peerDown)

	before := meshes[1].ReadStats().TxFlushes
	put := &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, Data: make([]byte, 64)}
	for i := 0; i < frames; i++ {
		put.OpID = uint64(i)
		if err := meshes[0].Send(1, put); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-parked
		}
	}
	resume()
	for i := 0; i < frames; i++ {
		select {
		case id := <-got:
			if id != uint64(i) {
				t.Fatalf("reply %d arrived in position %d", id, i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d replies arrived", i, frames)
		}
	}
	if n := meshes[1].ReadStats().TxFlushes - before; n > frames/4 {
		t.Errorf("%d replies took %d writes, want at most %d: replies are not batched per read", frames, n, frames/4)
	}
}

// TestHeldReplyPrecedesLaterSend is per-pair FIFO across the hold: rank 1's
// reader makes two replies and, still inside delivery so both are held,
// has another goroutine Send a third frame. That Send finds the conn free
// and takes the held replies along: rank 0 must see them first, and all
// three must leave in one write.
func TestHeldReplyPrecedesLaterSend(t *testing.T) {
	meshes := tcpMeshes(t, 2)
	for _, m := range meshes {
		m.hb.Interval = time.Hour // no Beat frames: TxFlushes counts these three only
	}
	defer closeAll(meshes)

	peerDown := func(rank int, err error) { t.Errorf("peerDown(%d): %v", rank, err) }
	got := make(chan uint64, 3)
	meshes[0].Start(func(from int, fr *wire.Frame) { got <- fr.OpID }, peerDown)
	delivered := make(chan struct{})
	meshes[1].Start(func(from int, fr *wire.Frame) {
		defer close(delivered)
		for id := uint64(1); id <= 2; id++ {
			reply := wire.Frame{Kind: wire.KindAck, Origin: 1, Target: 0, OpID: id}
			if err := meshes[1].SendReply(0, &reply); err != nil {
				t.Error(err)
			}
		}
		sent := make(chan error)
		go func() {
			sent <- meshes[1].Send(0, &wire.Frame{Kind: wire.KindPut, Origin: 1, Target: 0, OpID: 3})
		}()
		if err := <-sent; err != nil {
			t.Error(err)
		}
	}, peerDown)

	before := meshes[1].ReadStats()
	if err := meshes[0].Send(1, &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1}); err != nil {
		t.Fatal(err)
	}
	for want := uint64(1); want <= 3; want++ {
		select {
		case id := <-got:
			if id != want {
				t.Fatalf("frame %d arrived in position %d", id, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never arrived", want)
		}
	}
	<-delivered
	// A write counts its frames, then itself, then its TxCoalesce bucket,
	// after writev returns on whichever goroutine wrote: wait until the
	// three frames and every counted write are in the counters.
	after := meshes[1].ReadStats()
	settle := time.Now().Add(5 * time.Second)
	for !txSettled(before, after, 3) && time.Now().Before(settle) {
		time.Sleep(time.Millisecond)
		after = meshes[1].ReadStats()
	}
	if n := after.TxFlushes - before.TxFlushes; n != 1 {
		t.Errorf("two held replies and a Send took %d writes, want 1 (the Send's, replies riding along)", n)
	}
	if n := after.TxCoalesce[2] - before.TxCoalesce[2]; n != 1 {
		t.Errorf("TxCoalesce[2-4 frames] grew by %d, want 1 write of three frames; histogram %v", n, after.TxCoalesce)
	}
}

// txSettled reports whether after counts at least frames more frames than
// before, and at least one write, each with its TxCoalesce bucket.
func txSettled(before, after Stats, frames uint64) bool {
	var buckets uint64
	for i := range after.TxCoalesce {
		buckets += after.TxCoalesce[i] - before.TxCoalesce[i]
	}
	flushes := after.TxFlushes - before.TxFlushes
	return after.FramesSent-before.FramesSent >= frames && flushes >= 1 && flushes == buckets
}

// TestReplyPathZeroAlloc prices the held-reply path in allocations: a
// round holds one reply that rides along with a rank Send, and one that
// the reader's own flush writes. Neither may allocate, on either rank
// (AllocsPerRun counts process-wide mallocs).
func TestReplyPathZeroAlloc(t *testing.T) {
	meshes := tcpMeshes(t, 2)
	for _, m := range meshes {
		m.hb.Interval = time.Hour
	}
	defer closeAll(meshes)

	peerDown := func(rank int, err error) { t.Errorf("peerDown(%d): %v", rank, err) }
	held, resume := make(chan struct{}, 1), make(chan struct{}, 1)
	arrived := make(chan struct{}, 3)
	ack := wire.Frame{Kind: wire.KindAck, Origin: 1, Target: 0}
	meshes[1].Start(func(from int, fr *wire.Frame) {
		if err := meshes[1].SendReply(0, &ack); err != nil {
			t.Error(err)
		}
		if fr.OpID == 1 { // hold the reply until the rank has sent
			held <- struct{}{}
			<-resume
		}
	}, peerDown)
	meshes[0].Start(func(int, *wire.Frame) { arrived <- struct{}{} }, peerDown)

	put := wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, Data: make([]byte, 64)}
	back := wire.Frame{Kind: wire.KindPut, Origin: 1, Target: 0, Data: make([]byte, 64)}
	round := func() {
		put.OpID = 1
		if err := meshes[0].Send(1, &put); err != nil {
			t.Fatal(err)
		}
		<-held
		if err := meshes[1].Send(0, &back); err != nil { // the held reply rides along
			t.Fatal(err)
		}
		resume <- struct{}{}
		<-arrived
		<-arrived
		put.OpID = 2 // this reply goes out with the reader's flush
		if err := meshes[0].Send(1, &put); err != nil {
			t.Fatal(err)
		}
		<-arrived
	}
	for i := 0; i < 50; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("held reply + flush + ride-along Send: %.2f allocs per round of 5 frames, want 0", avg)
	}
}

// TestReadEndAfterEachRead is Serve's end-of-read callback: rank 1's
// reader parks inside the first frame of a burst while the rest piles up
// in its socket, answers every frame with a held reply, and its readEnd
// sends one frame naming the frames delivered since its last call, as the
// fabric's ack batch does. Every frame is named exactly once, in order,
// by the readEnd frame right behind its read's replies: readEnd runs after
// the frames of each read and before their replies leave, and its frame
// leaves in the same write, at most one write per four frames.
func TestReadEndAfterEachRead(t *testing.T) {
	const frames = 256
	meshes := tcpMeshes(t, 2)
	for _, m := range meshes {
		m.hb.Interval = time.Hour // no Beat frames: TxFlushes counts replies only
	}
	defer closeAll(meshes)
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	resume := func() { once.Do(func() { close(release) }) }
	defer resume() // runs before closeAll: Close waits for the reader

	peerDown := func(rank int, err error) { t.Errorf("peerDown(%d): %v", rank, err) }
	var read []byte // the IDs delivered since the last readEnd; only the reader touches it
	meshes[1].Serve(func(from int, fr *wire.Frame) {
		if fr.OpID == 0 {
			close(parked)
			<-release
		}
		read = wire.AppendAckPair(read, fr.OpID, 0)
		reply := wire.Frame{Kind: wire.KindGetResp, Origin: 1, Target: 0, OpID: fr.OpID}
		if err := meshes[1].SendReply(0, &reply); err != nil {
			t.Error(err)
		}
	}, nil, func(from int) {
		if len(read) == 0 {
			return
		}
		batch := wire.Frame{Kind: wire.KindAck, Origin: 1, Target: 0, Data: read}
		if err := meshes[1].SendReply(from, &batch); err != nil {
			t.Error(err)
		}
		read = read[:0]
	}, peerDown)
	got := make(chan wire.Frame, 2*frames)
	meshes[0].Start(func(from int, fr *wire.Frame) {
		c := *fr
		c.Data = append([]byte(nil), fr.Data...)
		got <- c
	}, peerDown)

	before := meshes[1].ReadStats().TxFlushes
	put := &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, Data: make([]byte, 64)}
	for i := 0; i < frames; i++ {
		put.OpID = uint64(i)
		if err := meshes[0].Send(1, put); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-parked
		}
	}
	resume()
	var replied []uint64 // replies not yet named by a batch
	biggest := 0
	for named := 0; named < frames; {
		select {
		case fr := <-got:
			if fr.Kind == wire.KindGetResp {
				if want := uint64(named + len(replied)); fr.OpID != want {
					t.Fatalf("reply %d arrived in position %d", fr.OpID, want)
				}
				replied = append(replied, fr.OpID)
				continue
			}
			n := len(fr.Data) / wire.AckPairLen
			for i := 0; i < n; i++ {
				if id, _ := wire.AckPair(fr.Data, i); i >= len(replied) || id != replied[i] {
					t.Fatalf("readEnd's frame names %d at %d; the replies before it were %v", id, i, replied)
				}
			}
			if n != len(replied) {
				t.Fatalf("readEnd's frame names %d frames; %d replies preceded it", n, len(replied))
			}
			biggest = max(biggest, n)
			named += n
			replied = replied[:0]
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d frames named by readEnd", named, frames)
		}
	}
	if biggest < 2 {
		t.Errorf("no read delivered more than one frame: the burst did not pile up")
	}
	if n := meshes[1].ReadStats().TxFlushes - before; n > frames/4 {
		t.Errorf("%d replies and their readEnd frames took %d writes, want at most %d", frames, n, frames/4)
	}
}
