package netfab

import (
	"bytes"
	"io"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"repro/internal/wire"
)

// Bulk frames on real sockets: the gather write of a big Send and the
// placed read of a big put (rx.go, "Placed reads").

const bigData = 256 << 10

// bigPut is a put frame of bigData bytes of pattern b, from rank 0 to 1.
func bigPut(opID uint64, b byte) *wire.Frame {
	return &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, RegionID: 1, OpID: opID,
		Imm: 3, ImmValid: true, WireSize: bigData, Data: bytes.Repeat([]byte{b}, bigData)}
}

// inq reports how many bytes conn's socket holds unread.
func inq(t *testing.T, conn net.Conn) int {
	t.Helper()
	raw, err := conn.(*net.TCPConn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var n int32
	var e syscall.Errno
	raw.Control(func(fd uintptr) {
		_, _, e = syscall.Syscall(syscall.SYS_IOCTL, fd, syscall.TIOCINQ, uintptr(unsafe.Pointer(&n)))
	})
	if e != 0 {
		t.Fatal(e)
	}
	return int(n)
}

// placeInto is a PlaceFunc for tests: it lands each offered frame in a
// fresh buffer and hands a copy of the frame, Data the landed payload, to
// got.
func placeInto(got chan<- *wire.Frame) PlaceFunc {
	return func(fr *wire.Frame, size int, rest func([]byte) error) (bool, error) {
		dst := make([]byte, size)
		copy(dst, fr.Data)
		if err := rest(dst[len(fr.Data):]); err != nil {
			return true, err
		}
		c := *fr
		c.Data = dst
		got <- &c
		return true, nil
	}
}

// TestPlacementWaitsForWholePayload writes two 256 KiB puts into rank 1's
// socket by hand. The first is whole in the socket before rank 1 reads
// it, and is placed. The second trickles in, 16 KiB at a time, each piece
// once rank 1 has read the one before: it must arrive byte-exact through
// the framer path (rx), and not count as placed, though its last piece
// finds the rest of it all in the socket.
func TestPlacementWaitsForWholePayload(t *testing.T) {
	meshes := tcpMeshes(t, 2)
	for _, m := range meshes {
		m.hb.Interval = time.Hour
	}
	defer closeAll(meshes)
	conn := meshes[1].peers[0].conn
	if err := conn.(*net.TCPConn).SetReadBuffer(1 << 20); err != nil {
		t.Fatal(err)
	}
	whole := wire.AppendFrame(nil, bigPut(1, 0xa1))
	trickled := wire.AppendFrame(nil, bigPut(2, 0xb2))

	raw := meshes[0].peers[1].conn
	if _, err := raw.Write(whole); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); inq(t, conn) < len(whole); {
		if time.Now().After(deadline) {
			t.Fatalf("rank 1's socket holds %d of %d bytes", inq(t, conn), len(whole))
		}
		time.Sleep(time.Millisecond)
	}

	placed, framed := make(chan *wire.Frame, 2), make(chan *wire.Frame, 2)
	peerDown := func(rank int, err error) { t.Errorf("peerDown(%d): %v", rank, err) }
	meshes[0].Start(func(int, *wire.Frame) {}, peerDown)
	meshes[1].Serve(func(from int, fr *wire.Frame) {
		c := *fr
		c.Data = append([]byte(nil), fr.Data...)
		framed <- &c
	}, placeInto(placed), nil, peerDown)

	check := func(how string, ch <-chan *wire.Frame, opID uint64, b byte) {
		t.Helper()
		select {
		case fr := <-ch:
			if fr.OpID != opID || fr.Kind != wire.KindPut || !bytes.Equal(fr.Data, bytes.Repeat([]byte{b}, bigData)) {
				t.Fatalf("%s frame: op %d kind %v, %d bytes; want op %d, %d bytes of %#x", how, fr.OpID, fr.Kind, len(fr.Data), opID, bigData, b)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no %s frame with op %d", how, opID)
		}
	}
	check("placed", placed, 1, 0xa1)

	for rest := trickled; len(rest) > 0; {
		n := min(len(rest), 16<<10)
		if _, err := raw.Write(rest[:n]); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
		for deadline := time.Now().Add(5 * time.Second); len(rest) > 0 && inq(t, conn) > 0; {
			if time.Now().After(deadline) {
				t.Fatal("rank 1 stopped reading the trickled put")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	check("framed", framed, 2, 0xb2)
	if st := meshes[1].ReadStats(); st.PlacedFrames != 1 || st.FramesRecv != 2 {
		t.Errorf("PlacedFrames %d, FramesRecv %d; want 1 and 2", st.PlacedFrames, st.FramesRecv)
	}
}

// TestGatherSendZeroAlloc prices a 256 KiB Send, which leaves as a gather
// write from the caller's buffer, in allocations: none on either rank
// once rank 1's framer has grown to the frame (AllocsPerRun counts
// process-wide). The send buffer holds only frame heads, and every
// frame counts as sent.
func TestGatherSendZeroAlloc(t *testing.T) {
	meshes := tcpMeshes(t, 2)
	for _, m := range meshes {
		m.hb.Interval = time.Hour
	}
	defer closeAll(meshes)
	peerDown := func(rank int, err error) { t.Errorf("peerDown(%d): %v", rank, err) }
	arrived := make(chan struct{}, 1)
	meshes[1].Start(func(int, *wire.Frame) { arrived <- struct{}{} }, peerDown)
	meshes[0].Start(func(int, *wire.Frame) {}, peerDown)

	put := bigPut(1, 0x5a)
	before := meshes[0].ReadStats() // the rendezvous frames
	sent := 0
	round := func() {
		if err := meshes[0].Send(1, put); err != nil {
			t.Fatal(err)
		}
		<-arrived
		sent++
	}
	for i := 0; i < 20; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("256 KiB Send and its delivery: %.2f allocs, want 0", avg)
	}
	p := meshes[0].peers[1]
	p.mu.Lock()
	enc := cap(p.encBuf)
	p.mu.Unlock()
	if enc >= 1<<10 {
		t.Errorf("send buffer grew to %d bytes: the payload was copied into it", enc)
	}
	st := settledStats(meshes[0], before.FramesSent+uint64(sent))
	if frames, bytes := st.FramesSent-before.FramesSent, st.BytesSent-before.BytesSent; frames != uint64(sent) || bytes != uint64(sent*(wire.HeadLen+bigData+wire.TrailerLen)) {
		t.Errorf("sent %d frames; counted %d frames, %d bytes", sent, frames, bytes)
	}
}

// TestPlacedRoundZeroAlloc prices a placed round in allocations: rank 0
// sends a 256 KiB put while rank 1's streams are held (rxMu), so it lands
// whole in the socket; rank 1 places it into a window buffer and its
// delivery replies with an ack. Neither rank may allocate, and every put
// must be placed.
func TestPlacedRoundZeroAlloc(t *testing.T) {
	meshes := tcpMeshes(t, 2)
	for _, m := range meshes {
		m.hb.Interval = time.Hour
	}
	defer closeAll(meshes)
	if err := meshes[1].peers[0].conn.(*net.TCPConn).SetReadBuffer(1 << 20); err != nil {
		t.Fatal(err)
	}
	peerDown := func(rank int, err error) { t.Errorf("peerDown(%d): %v", rank, err) }
	window := make([]byte, bigData)
	ack := wire.Frame{Kind: wire.KindAck, Origin: 1, Target: 0}
	var landed atomic.Uint64 // orders the window bytes before the test's read
	meshes[1].Serve(func(int, *wire.Frame) { t.Error("a put was not placed") },
		func(fr *wire.Frame, size int, rest func([]byte) error) (bool, error) {
			if err := rest(window[copy(window, fr.Data):size]); err != nil {
				return true, err
			}
			landed.Store(fr.OpID)
			ack.OpID = fr.OpID
			return true, meshes[1].SendReply(0, &ack)
		}, nil, peerDown)
	var acks atomic.Uint64
	meshes[0].Start(func(int, *wire.Frame) { acks.Add(1) }, peerDown)

	put := bigPut(0, 0)
	round := func() {
		put.OpID++
		put.Data[0] = byte(put.OpID)
		meshes[1].rxMu.Lock() // no round reads rank 1's stream until the put is in
		if err := meshes[0].Send(1, put); err != nil {
			t.Fatal(err)
		}
		meshes[1].rxMu.Unlock()
		for acks.Load() < put.OpID {
			time.Sleep(10 * time.Microsecond)
		}
		if landed.Load() != put.OpID || window[0] != byte(put.OpID) {
			t.Fatalf("put %d: window starts %#x", put.OpID, window[0])
		}
	}
	for i := 0; i < 10; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("placed 256 KiB put and its ack: %.2f allocs, want 0", avg)
	}
	if st := meshes[1].ReadStats(); st.PlacedFrames != put.OpID {
		t.Errorf("%d of %d puts placed", st.PlacedFrames, put.OpID)
	}
}

// TestPlacementDeclinesBufferedTrailer has rank 1's framer hold a 256 KiB
// put whole except its last byte, the first byte of its trailer buffered,
// before any round has judged it; the socket then gets the last byte and
// an 8 B put. The big put must be declined, not placed: a placement would
// read two trailer bytes where one is left, taking the next frame's first
// byte. Both puts must arrive byte-exact through the framer path, and the
// stream must stay up.
func TestPlacementDeclinesBufferedTrailer(t *testing.T) {
	meshes := tcpMeshes(t, 2)
	for _, m := range meshes {
		m.hb.Interval = time.Hour
	}
	defer closeAll(meshes)
	conn := meshes[1].peers[0].conn
	if err := conn.(*net.TCPConn).SetReadBuffer(1 << 20); err != nil {
		t.Fatal(err)
	}
	big := wire.AppendFrame(nil, bigPut(1, 0xc3))
	small := wire.AppendFrame(nil, &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, RegionID: 1, OpID: 2,
		WireSize: 8, Data: bytes.Repeat([]byte{0xd4}, 8)})

	placed, framed := make(chan *wire.Frame, 2), make(chan *wire.Frame, 2)
	peerDown := func(rank int, err error) { t.Errorf("peerDown(%d): %v", rank, err) }
	meshes[0].Start(func(int, *wire.Frame) {}, peerDown)
	meshes[1].Serve(func(from int, fr *wire.Frame) {
		c := *fr
		c.Data = append([]byte(nil), fr.Data...)
		framed <- &c
	}, func(fr *wire.Frame, size int, rest func([]byte) error) (bool, error) {
		dst := make([]byte, size) // lands as MemRegion.place does
		if err := rest(dst[copy(dst, fr.Data):]); err != nil {
			return true, err
		}
		c := *fr
		c.Data = dst
		placed <- &c
		return true, nil
	}, nil, peerDown)

	waitInq := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); inq(t, conn) < want; {
			if time.Now().After(deadline) {
				t.Fatalf("rank 1's socket holds %d of %d bytes", inq(t, conn), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	raw := meshes[0].peers[1].conn
	meshes[1].rxMu.Lock() // no round reads rank 1's stream until its framer is set up
	var s *rxStream
	for _, only := range meshes[1].poller.streams {
		s = only
	}
	if s == nil || s.fram.Buffered() != 0 {
		meshes[1].rxMu.Unlock()
		t.Fatal("rank 1 has no idle polled stream")
	}
	if _, err := raw.Write(big[:len(big)-1]); err != nil {
		meshes[1].rxMu.Unlock()
		t.Fatal(err)
	}
	waitInq(len(big) - 1)
	for s.fram.Buffered() < len(big)-1 {
		if _, err := s.fram.Fill(&io.LimitedReader{R: s.r, N: int64(len(big) - 1 - s.fram.Buffered())}); err != nil {
			meshes[1].rxMu.Unlock()
			t.Fatal(err)
		}
	}
	if _, err := raw.Write(append(big[len(big)-1:], small...)); err != nil {
		meshes[1].rxMu.Unlock()
		t.Fatal(err)
	}
	waitInq(1 + len(small))
	meshes[1].rxMu.Unlock()

	for _, want := range []struct {
		opID uint64
		data []byte
	}{{1, bytes.Repeat([]byte{0xc3}, bigData)}, {2, bytes.Repeat([]byte{0xd4}, 8)}} {
		select {
		case fr := <-framed:
			if fr.OpID != want.opID || !bytes.Equal(fr.Data, want.data) {
				t.Fatalf("framed op %d with %d bytes; want op %d with %d bytes", fr.OpID, len(fr.Data), want.opID, len(want.data))
			}
		case fr := <-placed:
			t.Fatalf("op %d placed with its trailer partly buffered", fr.OpID)
		case <-time.After(5 * time.Second):
			t.Fatalf("op %d never arrived", want.opID)
		}
	}
	if st := meshes[1].ReadStats(); st.PlacedFrames != 0 || st.FramesRecv != 2 {
		t.Errorf("PlacedFrames %d, FramesRecv %d; want 0 and 2", st.PlacedFrames, st.FramesRecv)
	}
}
