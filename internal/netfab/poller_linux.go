//go:build linux

package netfab

// The process-wide poller: every peer stream registers its fd in one
// epoll set (level-triggered) at bootstrap, and a poll round pumps
// whichever stream has bytes, so the rx cost of a mesh is one goroutine
// whatever the job size. Rounds run on a single poller goroutine and on
// ranks blocked in a wait that drive the streams themselves (Progress),
// one at a time under the mesh's rxMu. Reads go through the raw fd (never
// parking in the runtime's netpoller); EAGAIN surfaces as errWouldBlock
// and the stream resumes on its next readiness event. The set also watches
// for EPOLLOUT on a stream whose socket refused part of its queue
// (writeQueueLocked): the round that sees it writes the rest.

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/beat"
	"repro/internal/wire"
)

type poller struct {
	epfd    int
	wakeR   int                  // self-pipe read end, registered in the epoll set
	wakeW   int                  // write end: any byte means "shut down"
	streams map[int]*rxStream    // live registered streams, by fd; under rxMu once running
	events  []syscall.EpollEvent // a round's ready list, under rxMu
}

// newPoller builds the epoll set and its shutdown self-pipe.
func newPoller() (*poller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("netfab: epoll_create1: %w", err)
	}
	var pfds [2]int
	if err := syscall.Pipe2(pfds[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd)
		return nil, fmt.Errorf("netfab: poller pipe: %w", err)
	}
	pl := &poller{epfd: epfd, wakeR: pfds[0], wakeW: pfds[1], streams: make(map[int]*rxStream),
		events: make([]syscall.EpollEvent, 128)}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(pl.wakeR)}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, pl.wakeR, &ev); err != nil {
		pl.destroy()
		return nil, fmt.Errorf("netfab: poller pipe: %w", err)
	}
	return pl, nil
}

// add registers p's stream in the epoll set and binds its nonblocking
// writer. Called before the poll loop runs.
func (pl *poller) add(p *peer) error {
	sc, ok := p.conn.(syscall.Conn)
	if !ok {
		return fmt.Errorf("netfab: the stream to rank %d has no socket", p.rank)
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return fmt.Errorf("netfab: the stream to rank %d: %w", p.rank, err)
	}
	var ctlErr error
	if err := raw.Control(func(f uintptr) {
		p.fd = int(f)
		ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(f)}
		ctlErr = syscall.EpollCtl(pl.epfd, syscall.EPOLL_CTL_ADD, p.fd, &ev)
	}); err != nil || ctlErr != nil {
		return fmt.Errorf("netfab: polling the stream to rank %d: %w", p.rank, errors.Join(err, ctlErr))
	}
	p.nb.init(raw)
	s := newRxStream(p, fdReader(p.fd))
	s.place = &placer{fd: p.fd, rank: p.rank}
	s.place.rest = s.place.readRest
	pl.streams[p.fd] = s
	return nil
}

// launch starts the poll loop, accounted in the mesh's loops; the
// streams' liveness clocks start now.
func (pl *poller) launch(m *Mesh) {
	now := time.Now()
	for _, s := range pl.streams {
		s.mon = beat.NewMonitor(now)
	}
	m.loops.Add(1)
	go m.pollLoop(pl)
}

// wake tells the poll loop to exit.
func (pl *poller) wake() {
	var one [1]byte
	syscall.Write(pl.wakeW, one[:])
}

// destroy releases the epoll set and the self-pipe. The caller has joined
// the poll loop, holds rxMu (no driving rank's round is inside the set)
// and has marked every stream closed (no flush arms EPOLLOUT any more),
// and no registered conn is closed yet: a closed fd number can be reused
// by an unrelated file while still in our map.
func (pl *poller) destroy() {
	syscall.Close(pl.epfd)
	syscall.Close(pl.wakeR)
	syscall.Close(pl.wakeW)
}

// watchOut sets whether the set reports p's socket writable (EPOLLOUT) as
// well as readable. The caller holds p.mu, on a stream not closed.
func (pl *poller) watchOut(p *peer, on bool) {
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(p.fd)}
	if on {
		ev.Events |= syscall.EPOLLOUT
	}
	syscall.EpollCtl(pl.epfd, syscall.EPOLL_CTL_MOD, p.fd, &ev) // ENOENT: the stream was dropped
}

// pollSpin is how long the poll loop yield-spins on an idle epoll set
// before committing to a blocking wait. A thread parked in EpollWait
// wakes through an OS reschedule — ~100us on bare metal, and on a
// throttled/virtualized core potentially a whole scheduling quantum —
// which would put a fixed floor under every message hop. Nonblocking
// polls interleaved with Gosched keep mid-conversation latency at
// syscall speed; only a mesh idle for the full budget pays the
// blocking-wakeup cost, and from then on it costs one wake-up per beat
// interval. 5ms comfortably covers inter-hop gaps (fabric processing at
// the peer) without burning meaningful CPU on a mesh that went quiet.
const pollSpin = 5 * time.Millisecond

// asideSpin is how long the poller's own rounds must come up empty while a
// rank drives the streams before it steps aside, as on shm: a rank that
// takes all its traffic in its waits parks the poller within one wait.
const asideSpin = 20 * time.Microsecond

// asideNap bounds a step-aside. A driver that found its event leaves the
// poller aside, so a frame a rank queues and then computes past, and
// traffic for a rank that computes, wait at most this long for the
// poller's next round.
const asideNap = time.Millisecond

// pollLoop is the poller goroutine: run a round, and yield the processor
// after an empty one. Level triggering makes partially drained streams
// re-fire, so stopping at EAGAIN is the only obligation. Once its own
// rounds have found nothing for asideSpin while a rank drives the streams
// it steps aside (stepAside); once they have found nothing for pollSpin it
// sleeps in a blocking epoll_wait (park), which never sleeps longer than a
// beat interval, so the liveness checks keep their pace.
//
// It is also the tx backstop: the round after an empty one first writes
// every queue Send left (flushQueued), so no queued frame waits for its
// rank's next call. Before a blocking wait it stores pollParked, and from
// then on until it wakes a Send writes its own frame.
func (m *Mesh) pollLoop(pl *poller) {
	defer func() {
		m.pollParked.Store(true) // nobody flushes for Send any more
		m.rxMu.Lock()
		m.flushQueued(pl)
		m.rxMu.Unlock()
		m.loops.Done()
	}()
	probe := make([]syscall.EpollEvent, 1)
	blockMs := max(1, int(m.hb.Interval/time.Millisecond))
	nap := time.NewTimer(asideNap)
	nap.Stop()
	var idleSince time.Time // zero while the poller's own rounds find streams
	for {
		now := time.Now()
		if !idleSince.IsZero() {
			idle := now.Sub(idleSince)
			if idle >= asideSpin && m.driven() {
				m.stepAside(nap)
				now = time.Now()
				idleSince = now // the round after the nap flushes
			} else if idle >= pollSpin {
				if !m.park(pl, probe, blockMs) {
					return
				}
				now = time.Now()
			}
		}
		ready, _, quit := m.round(pl, now, !idleSince.IsZero(), false)
		if quit {
			return
		}
		if ready > 0 {
			idleSince = time.Time{}
			continue
		}
		if idleSince.IsZero() {
			idleSince = now
		}
		runtime.Gosched()
	}
}

// round is one poll round at now, if no other goroutine runs one (TryLock
// on rxMu): with flush set it first writes what Send queued, then runs the
// liveness checks when one is due, takes the ready streams in one
// epoll_wait that does not block, writes the queue of each that turned
// writable (EPOLLOUT) and drains each that has input. waiter says a rank
// runs it (Progress): it leaves its replies queued for its next round
// (pump), ignores the shutdown pipe, and after Close does nothing. It
// reports how many streams were ready, how many frames it read, and
// whether the poller should exit.
func (m *Mesh) round(pl *poller, now time.Time, flush, waiter bool) (ready int, frames uint64, quit bool) {
	if !m.rxMu.TryLock() {
		return 0, 0, false
	}
	defer m.rxMu.Unlock()
	if waiter && m.closed.Load() {
		return 0, 0, false // the epoll set and the conns may be gone
	}
	if flush {
		m.flushQueued(pl)
	}
	if now.Sub(m.lastCheck) >= m.hb.Interval {
		m.lastCheck = now
		m.checkStalls(pl, now, waiter)
	}
	n, err := syscall.EpollWait(pl.epfd, pl.events, 0)
	if err != nil {
		return 0, 0, err != syscall.EINTR && !waiter
	}
	for _, ev := range pl.events[:n] {
		fd := int(ev.Fd)
		if fd == pl.wakeR {
			if waiter {
				continue
			}
			return ready, frames, true // only shutdown writes the self-pipe
		}
		s := pl.streams[fd]
		if s == nil || s.dead {
			continue
		}
		ready++
		if ev.Events&syscall.EPOLLOUT != 0 {
			s.p.mu.Lock()
			m.writeQueueLocked(s.p)
			s.p.mu.Unlock()
		}
		if ev.Events&^syscall.EPOLLOUT == 0 {
			continue
		}
		before := s.frames
		if !m.drain(s, waiter) {
			pl.drop(fd)
		}
		frames += s.frames - before
	}
	return ready, frames, false
}

// stepAside parks the poller while ranks drive the streams: on a channel,
// so waking it is a goroutine switch, never an OS thread wakeup. It
// returns when the last driver gives up (resume), when Close quits, or
// after asideNap, whichever comes first. aside is stored before the
// driver count is re-read, and EndDrive changes the count before it reads
// aside.
func (m *Mesh) stepAside(nap *time.Timer) {
	m.aside.Store(true)
	if m.driven() {
		nap.Reset(asideNap)
		select {
		case <-m.resume:
		case <-nap.C:
		case <-m.quit:
		}
		if !nap.Stop() {
			select {
			case <-nap.C:
			default:
			}
		}
	}
	m.aside.Store(false)
}

// park sleeps in a blocking epoll_wait, outside rxMu so driving ranks
// keep their rounds, until a stream turns readable, the shutdown pipe is
// written or blockMs passes. It stores pollParked first and then writes
// every queue Send left, so from then on a Send writes its own frame. It
// reports whether the poll loop may go on.
func (m *Mesh) park(pl *poller, probe []syscall.EpollEvent, blockMs int) bool {
	m.pollParked.Store(true)
	m.rxMu.Lock()
	m.flushQueued(pl) // after storing pollParked: see Mesh.txQueued
	m.rxMu.Unlock()
	_, err := syscall.EpollWait(pl.epfd, probe, blockMs)
	for err == syscall.EINTR {
		_, err = syscall.EpollWait(pl.epfd, probe, blockMs)
	}
	m.pollParked.Store(false)
	return err == nil
}

// flushQueued writes, without parking, the queue of every stream a Send
// queued on since the last call. Caller holds rxMu.
func (m *Mesh) flushQueued(pl *poller) {
	if !m.txQueued.Load() || !m.txQueued.Swap(false) {
		return
	}
	for _, s := range pl.streams {
		s.p.mu.Lock()
		m.flushNowLocked(s.p)
	}
}

// drop deregisters a finished stream (EOF keeps the fd readable forever
// under level triggering). Caller holds rxMu.
func (pl *poller) drop(fd int) {
	syscall.EpollCtl(pl.epfd, syscall.EPOLL_CTL_DEL, fd, nil)
	delete(pl.streams, fd)
}

// checkStalls runs every stream through the liveness detector, and
// convicts a peer whose socket has refused this rank's queue for
// WriteTimeout. The reader may just have spent the whole timeout parked
// in rx on one stream while the others' bytes piled up in their sockets
// (or their sockets turned writable), so an apparent stall is re-judged
// after a read (a write): only a stream that is silent and has nothing to
// read (still refuses the queue) convicts its peer. Caller holds rxMu.
func (m *Mesh) checkStalls(pl *poller, now time.Time, waiter bool) {
	for fd, s := range pl.streams {
		if _, stuck := m.writeStalled(s.p, now); stuck {
			s.p.mu.Lock()
			m.writeQueueLocked(s.p)
			s.p.mu.Unlock()
			if d, stuck := m.writeStalled(s.p, now); stuck {
				m.convict(s, fmt.Errorf("netfab: rank %d took no byte for %v", s.p.rank, d.Round(time.Millisecond)))
				pl.drop(fd)
				continue
			}
		}
		if _, dead := m.stalled(s, now); !dead {
			continue
		}
		if !m.drain(s, waiter) {
			pl.drop(fd) // ended on its own, already classified
			continue
		}
		if d, dead := m.stalled(s, now); dead {
			m.convict(s, fmt.Errorf("netfab: rank %d heartbeat stalled for %v", s.p.rank, d.Round(time.Millisecond)))
			pl.drop(fd)
		}
	}
}

// fdReader reads a socket without ever blocking the calling goroutine:
// EAGAIN surfaces as errWouldBlock instead of parking in the runtime's
// netpoller, which is the property that lets one goroutine multiplex
// every stream. It reads the raw fd number, allocating nothing: only a
// round reads, under rxMu, and stop returns before any registered conn
// closes.
type fdReader int

func (fd fdReader) Read(b []byte) (int, error) {
	for {
		n, err := syscall.Read(int(fd), b)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return 0, errWouldBlock
		case err != nil:
			return 0, err
		case n == 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

// placer is a stream's half of a placed read (rx.go, "Placed
// reads"): it asks the socket how much it holds and reads a placed
// frame's rest straight into its destination. Like fdReader it is used
// only by a round, under rxMu, and allocates nothing.
type placer struct {
	fd, rank int
	inq      int32
	trailer  [wire.TrailerLen]byte
	iov      [2]syscall.Iovec
	rest     func(dst []byte) error // readRest, bound once
}

// offer hands the incomplete frame at s's framer head (a body of n bytes,
// head of them buffered) to the mesh's PlaceFunc if it is a bulk put with
// no strings whose rest the socket already holds, all of it. A frame
// whose trailer the framer already holds part of is declined: the buffered
// part handed on must be payload only, and the trailer is read whole from
// the socket. It reports the bytes the placement read, and whether the
// callback took the frame; if it did, the framer's part of it is dropped.
func (m *Mesh) offer(s *rxStream, n int, head []byte) (int, bool, error) {
	pl := s.place
	size, err := wire.PeekHead(head, &s.fr)
	if err != nil || s.fr.Kind != wire.KindPut || size < txChunkSize || n != wire.HeadLen-wire.LengthPrefix+size+wire.TrailerLen {
		return 0, false, nil
	}
	rest := n - len(head)
	if rest < wire.TrailerLen {
		return 0, false, nil
	}
	if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, uintptr(pl.fd), syscall.TIOCINQ, uintptr(unsafe.Pointer(&pl.inq))); e != 0 || int(pl.inq) < rest {
		return 0, false, nil
	}
	s.fr.Data = head[wire.HeadLen-wire.LengthPrefix:]
	placed, err := m.place(&s.fr, size, pl.rest)
	if placed {
		s.fram.Skip()
	}
	return rest, placed, err
}

// readRest reads dst, the rest of a placed frame's data, and then the
// frame's trailer from the socket, in readv calls that fill dst in place.
// The socket holds all of it (offer checked), so a read never finds it
// empty. A non-empty string table is refused with the error the framer
// path would report for the frame.
func (pl *placer) readRest(dst []byte) error {
	trailer := pl.trailer[:]
	for len(trailer) > 0 {
		iov := pl.iov[:0]
		if len(dst) > 0 {
			iov = append(iov, syscall.Iovec{Base: &dst[0]})
			iov[0].SetLen(len(dst))
		}
		iov = append(iov, syscall.Iovec{Base: &trailer[0]})
		iov[len(iov)-1].SetLen(len(trailer))
		r, _, e := syscall.Syscall(syscall.SYS_READV, uintptr(pl.fd), uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)))
		switch {
		case e == syscall.EINTR:
			continue
		case e != 0:
			return fmt.Errorf("netfab: placed read from rank %d: %w", pl.rank, e)
		case r == 0:
			return io.ErrUnexpectedEOF
		}
		k := min(int(r), len(dst))
		dst, trailer = dst[k:], trailer[int(r)-k:]
	}
	pl.iov = [2]syscall.Iovec{} // keep no window reachable
	if err := wire.CheckTrailer(pl.trailer[:]); err != nil {
		return fmt.Errorf("netfab: undecodable frame from rank %d: %w", pl.rank, err)
	}
	return nil
}

// nbWriter makes nonblocking writes on a socket's fd: EAGAIN means the
// kernel took nothing, never a wait in the runtime's netpoller. The write
// callback and iovec array are built once per stream, so a write allocates
// nothing. Only the goroutine holding the stream's flushing flag writes.
type nbWriter struct {
	raw syscall.RawConn
	iov []syscall.Iovec
	n   int64
	err syscall.Errno
	fn  func(fd uintptr) bool
}

// maxIOV is the most buffers one writev takes (the kernel's IOV_MAX).
const maxIOV = 1024

func (w *nbWriter) init(raw syscall.RawConn) {
	w.raw = raw
	w.fn = func(fd uintptr) bool {
		for {
			n, _, e := syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&w.iov[0])), uintptr(len(w.iov)))
			if e != syscall.EINTR {
				w.n, w.err = int64(n), e
				return true // never wait in the runtime poller
			}
		}
	}
}

// writev makes one nonblocking writev of bufs (at least one, none empty)
// and reports how many bytes the socket took: 0 and no error when its
// send buffer is full.
func (w *nbWriter) writev(bufs [][]byte) (int64, error) {
	for _, b := range bufs[:min(len(bufs), maxIOV)] {
		w.iov = append(w.iov, syscall.Iovec{Base: &b[0]})
		w.iov[len(w.iov)-1].SetLen(len(b))
	}
	err := w.raw.Write(w.fn)
	clear(w.iov) // keep no chunk reachable
	w.iov = w.iov[:0]
	switch {
	case err != nil:
		return 0, err
	case w.err == syscall.EAGAIN:
		return 0, nil
	case w.err != 0:
		return 0, w.err
	}
	return w.n, nil
}
