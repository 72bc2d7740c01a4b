//go:build linux

package netfab

import (
	"bytes"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/wire"
)

// driveUntil is a rank blocked in a wait that drives its mesh: one drive
// (BeginDrive .. EndDrive) of poll rounds until done holds.
func driveUntil(m *Mesh, done func() bool) {
	m.BeginDrive()
	for !done() {
		if !m.Progress() {
			runtime.Gosched()
		}
	}
	m.EndDrive(true)
}

// TestProgressAfterCloseIsNoop closes a mesh and then rebuilds the hazard a
// late round would walk into: the closed epoll set's fd number is an epoll
// set again, watching a pipe that holds a whole frame under the number of
// the closed stream. A round run after Close would take that fd as the
// peer's stream and deliver the frame; Progress must do nothing.
func TestProgressAfterCloseIsNoop(t *testing.T) {
	meshes := tcpMeshes(t, 2)
	var delivered atomic.Int32
	for _, m := range meshes {
		m.Start(func(int, *wire.Frame) { delivered.Add(1) }, nil)
	}
	m := meshes[0]
	epfd := m.poller.epfd
	streamFD := -1
	m.rxMu.Lock()
	for fd := range m.poller.streams {
		streamFD = fd
	}
	m.rxMu.Unlock()
	// Abrupt and rank 0 first: the stream is still registered when the
	// poller stops, as it is whenever a rank closes before its peers.
	for _, m := range meshes {
		m.Close(false)
	}
	if m.Progress() {
		t.Fatal("Progress after Close reported progress")
	}

	// Reclaim both fd numbers, if nothing else took them meanwhile: make
	// the epoll set and the pipe, lift them clear of the numbers, then dup
	// them onto the numbers.
	free := func(fd int) bool {
		_, _, e := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), syscall.F_GETFD, 0)
		return e == syscall.EBADF
	}
	lift := func(fd int) int {
		hi, _, e := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), syscall.F_DUPFD_CLOEXEC, 512)
		if e != 0 {
			t.Fatal(e)
		}
		syscall.Close(fd)
		return int(hi)
	}
	ep, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		t.Fatal(err)
	}
	var pfds [2]int
	if err := syscall.Pipe2(pfds[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		t.Fatal(err)
	}
	ep, pipeR, pipeW := lift(ep), lift(pfds[0]), lift(pfds[1])
	defer syscall.Close(pipeW)
	if !free(epfd) || !free(streamFD) {
		syscall.Close(ep)
		syscall.Close(pipeR)
		t.Skipf("fd %d or %d was reused before the test could take it", epfd, streamFD)
	}
	for _, move := range []struct{ from, to int }{{ep, epfd}, {pipeR, streamFD}} {
		if err := syscall.Dup3(move.from, move.to, syscall.O_CLOEXEC); err != nil {
			t.Fatal(err)
		}
		syscall.Close(move.from)
		defer syscall.Close(move.to)
	}
	frame := wire.AppendFrame(nil, &wire.Frame{Kind: wire.KindPut, Origin: 1, Target: 0, Data: []byte("stale")})
	if _, err := syscall.Write(pipeW, frame); err != nil {
		t.Fatal(err)
	}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(streamFD)}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, streamFD, &ev); err != nil {
		t.Fatal(err)
	}

	before := delivered.Load()
	m.BeginDrive()
	for i := 0; i < 10; i++ {
		if m.Progress() {
			t.Error("Progress after Close reported progress")
		}
	}
	m.EndDrive(false)
	if n := delivered.Load() - before; n != 0 {
		t.Fatalf("Progress after Close delivered %d frame(s) read from a reused fd", n)
	}
}

// TestBigSendWaitsForConn pins how a 256 KiB Send meets a conn another
// goroutine is flushing: it waits for the conn, as backpressure does,
// instead of copying the frame into the queue, where its chunk would
// outgrow txChunkRecycleCap and go to the GC. Once the conn is free the
// frame must arrive byte-exact, and no chunk the stream keeps may be
// above the cap.
func TestBigSendWaitsForConn(t *testing.T) {
	meshes := tcpMeshes(t, 2)
	for _, m := range meshes {
		m.hb.Interval = time.Hour
	}
	defer closeAll(meshes)
	got := make(chan []byte, 1)
	meshes[1].Start(func(from int, fr *wire.Frame) {
		if fr.Kind == wire.KindPut {
			got <- append([]byte(nil), fr.Data...)
		}
	}, nil)
	meshes[0].Start(func(int, *wire.Frame) {}, nil)

	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i*7 + i>>10)
	}
	p := meshes[0].peers[1]
	bigChunks := func() (n int) {
		for _, c := range append(append([]*txChunk(nil), p.chunks...), p.free...) {
			if cap(c.buf) > txChunkRecycleCap {
				n++
			}
		}
		return n
	}

	p.mu.Lock()
	p.flushing = true // another goroutine's flush holds the conn
	p.mu.Unlock()
	sent := make(chan error, 1)
	go func() { sent <- meshes[0].Send(1, &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, Data: data}) }()
	time.Sleep(20 * time.Millisecond)
	p.mu.Lock()
	if n := bigChunks(); n != 0 {
		t.Errorf("%d chunk(s) above txChunkRecycleCap queued while the conn was taken", n)
	}
	queued := len(p.chunks) > 0 // nobody writes it: the test holds the conn
	p.flushing = false
	p.sendable.Broadcast()
	if queued {
		m := meshes[0]
		m.flushNowLocked(p) // hand it on, as the flush the test played would
	} else {
		p.mu.Unlock()
	}

	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
		if queued {
			t.Error("the Send returned while the conn was taken: it queued the frame")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the Send never completed once the conn was free")
	}
	select {
	case b := <-got:
		if !bytes.Equal(b, data) {
			t.Fatal("the 256 KiB frame arrived corrupted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the 256 KiB frame never arrived")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := bigChunks(); n != 0 {
		t.Errorf("%d chunk(s) above txChunkRecycleCap kept by the stream", n)
	}
}

// TestHeartbeatConvictsWhileDriven: a rank that drives its streams for the
// whole test keeps the poller aside, and a silent peer must still be
// convicted within two timeouts, by whoever runs the rounds, while the
// healthy peer is not.
func TestHeartbeatConvictsWhileDriven(t *testing.T) {
	meshes := tcpMeshes(t, 3)
	for _, m := range meshes {
		m.hb = testBeat
	}
	defer func() {
		for _, m := range meshes {
			m.Close(false)
		}
	}()
	var log downLog
	for r, m := range meshes {
		m.Start(func(int, *wire.Frame) {}, log.hook(r))
	}
	time.Sleep(testBeat.StartupGrace) // past the grace, a silence counts
	stop := make(chan struct{})
	drove := make(chan struct{})
	go func() {
		defer close(drove)
		driveUntil(meshes[0], func() bool {
			select {
			case <-stop:
				return true
			default:
				return false
			}
		})
	}()
	meshes[2].SuppressHeartbeat()
	time.Sleep(2 * testBeat.Timeout)
	close(stop)
	<-drove
	convicted := false
	for _, d := range log.snapshot() {
		if d.observer != 0 {
			continue
		}
		if d.failed != 2 || !strings.Contains(d.err.Error(), "heartbeat stalled") {
			t.Errorf("unexpected peerDown %v: want only rank 2, as a stalled heartbeat", d)
		}
		convicted = true
	}
	if !convicted {
		t.Errorf("rank 0, driving its streams, did not convict the silent rank 2 inside two timeouts; peerDowns: %v", log.snapshot())
	}
	if meshes[0].ReadStats().WaiterFrames == 0 {
		t.Error("the driving rank read no frame: the beats all went to the poller")
	}
}

// TestDrivenRoundZeroAlloc prices a driven ping-pong in allocations: each
// rank drives its mesh until the partner's 8 B notified put arrives, its
// delivery replies with an ack that stays queued, and the rank's next put
// carries it. Neither rank may allocate (AllocsPerRun counts process-wide
// mallocs), and the puts must be read by the driving ranks.
func TestDrivenRoundZeroAlloc(t *testing.T) {
	meshes := tcpMeshes(t, 2)
	for _, m := range meshes {
		m.hb.Interval = time.Hour
	}
	defer closeAll(meshes)

	var puts, acks [2]atomic.Int64
	for r, m := range meshes {
		ack := wire.Frame{Kind: wire.KindAck, Origin: r, Target: 1 - r}
		m.Start(func(from int, fr *wire.Frame) {
			switch fr.Kind {
			case wire.KindPut:
				ack.OpID = fr.OpID
				if err := m.SendReply(from, &ack); err != nil {
					t.Error(err)
				}
				puts[r].Add(1)
			case wire.KindAck:
				acks[r].Add(1)
			}
		}, nil)
	}
	put := func(r int) *wire.Frame {
		return &wire.Frame{Kind: wire.KindPut, Origin: r, Target: 1 - r, RegionID: 1,
			Imm: 7, ImmValid: true, WireSize: 8, Data: make([]byte, 8)}
	}
	fwd, back := put(0), put(1)

	var quit atomic.Bool
	echoed := make(chan struct{})
	go func() { // rank 1: wait for a put, answer it
		defer close(echoed)
		for n := int64(1); ; n++ {
			driveUntil(meshes[1], func() bool { return puts[1].Load() >= n || quit.Load() })
			if quit.Load() {
				return
			}
			back.OpID = uint64(n)
			if err := meshes[1].Send(0, back); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var n int64
	round := func() { // rank 0: put, wait for the answer and the ack of the put
		n++
		fwd.OpID = uint64(n)
		if err := meshes[0].Send(1, fwd); err != nil {
			t.Fatal(err)
		}
		driveUntil(meshes[0], func() bool { return puts[0].Load() >= n && acks[0].Load() >= n })
	}
	for i := 0; i < 100; i++ {
		round()
	}
	avg := testing.AllocsPerRun(500, round)
	quit.Store(true)
	<-echoed
	if avg != 0 {
		t.Errorf("driven round (8 B notified put, its ack, the answer and its ack): %.2f allocs, want 0", avg)
	}
	for r, m := range meshes {
		if m.ReadStats().WaiterFrames == 0 {
			t.Errorf("rank %d: no frame was read by the driving rank", r)
		}
	}
}
