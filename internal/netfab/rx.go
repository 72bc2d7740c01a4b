package netfab

// The receive path as a resumable state machine.
//
// Every peer stream owns an rxStream: the framer, the scratch frame and the
// peer's liveness monitor. Pumping the machine is identical whether the
// bytes come from a blocking conn (fallback goroutine, one per stream —
// in-memory pipes and platforms without a poller) or from a nonblocking fd
// read in a poll round, by the process-wide poller or by a rank driving
// the streams (Progress), whichever holds the mesh's rxMu: either reader
// returns errWouldBlock when it has nothing (the fd at once, the conn
// after one idle beat interval), and the machine simply stops mid-stride
// and resumes on the next call.
//
// Liveness is judged here and nowhere else, by the goroutine that reads
// the stream, right after a read came up empty: a reader parked inside rx
// (committing a delivery) judges nobody, and when it resumes it reads what
// piled up in the socket before it measures any silence. A stalled local
// reader therefore never convicts a healthy peer.
//
// Placed reads. A put of txChunkSize or more data need not pass through
// the framer's buffer. When the buffer holds such a frame's head (and
// perhaps part of its payload) and the socket already holds the rest of
// the frame, all of it, the reader offers the frame to the mesh's
// PlaceFunc: the fabric copies the buffered part into the window and the
// stream reads the rest straight after it, under the window's write lock,
// then the fabric delivers the put as placed (notification and ack as for
// any put). The first time the framer holds a bulk frame's head decides
// it: a frame declined then (payload still arriving, part of its trailer
// already buffered, not a put, no callback, a fallback stream) completes
// through the framer, as every frame did before.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"repro/internal/beat"
	"repro/internal/wire"
)

// errWouldBlock is the sentinel a reader returns when the stream has no
// bytes ready; the driver parks the stream instead of treating it as a
// stream error.
var errWouldBlock = errors.New("netfab: read would block")

// rxStream is one peer stream's receive state, safe to abandon and resume
// at any reader would-block point.
type rxStream struct {
	p    *peer
	r    io.Reader // fdReader (poller) or idleReader (fallback)
	fram *wire.Framer
	fr   wire.Frame // scratch: decoded bodies

	// The peer's beat is any inbound byte: rxBytes is the counter mon
	// watches. Both belong to the goroutine that reads the stream.
	rxBytes uint64
	mon     beat.Monitor

	sinceRead int    // frames completed since the last counted read
	frames    uint64 // frames completed, ever
	dead      bool

	// Placement state (see "Placed reads"): decided is set once the
	// framer's incomplete head frame has been judged for placement. place
	// is the placed-read half on streams that have one (a polled fd), nil
	// on fallback streams.
	decided bool
	place   *placer
}

func newRxStream(p *peer, r io.Reader) *rxStream {
	return &rxStream{p: p, r: r, fram: wire.NewFramer(rxBufSize), mon: beat.NewMonitor(time.Now())}
}

// read brings s's next bytes in: it places the incomplete frame at the
// framer's head if it can (see "Placed reads"), and otherwise makes one
// read into the framer. It reports the bytes read and, when it placed a
// frame (which completes and delivers it), the frame's body length.
func (m *Mesh) read(s *rxStream) (n, placed int, err error) {
	if body, head := s.fram.Head(); body >= txChunkSize && !s.decided && len(head) >= wire.HeadLen-wire.LengthPrefix {
		s.decided = true
		if s.place != nil && m.place != nil {
			if n, ok, err := m.offer(s, body, head); ok {
				s.decided = false
				return n, body, err
			}
		}
	}
	n, err = s.fram.Fill(s.r)
	return n, 0, err
}

// drain pumps s until its reader would block or the stream ends, which it
// classifies through streamEnded; waiter says a driving rank reads (see
// pump). It reports whether the stream is still alive.
func (m *Mesh) drain(s *rxStream, waiter bool) bool {
	err := m.pump(s, waiter)
	if err == errWouldBlock {
		return true
	}
	s.dead = true
	m.streamEnded(s.p, err)
	return false
}

// pump advances s's state machine: slice the buffered bytes into frames,
// decode each and hand it to rx, read more when the buffer runs dry. It
// returns only on a reader error (errWouldBlock, EOF or a real error) or a
// protocol error; it never returns nil.
//
// The replies one read's frames make are held (peer.holding) and leave
// together: the poller writes them before its next read, a driving rank
// right after its next read brought more. A driving rank whose next read
// comes up empty leaves them queued for its next round instead
// (deferLocked), to ride the Send its returning wait makes. What readEnd
// sends once the read's frames are delivered is one of those replies.
func (m *Mesh) pump(s *rxStream, waiter bool) error {
	p := s.p
	for {
		body, err := s.fram.Next()
		if err != nil {
			return fmt.Errorf("netfab: bad frame from rank %d: %w", p.rank, err)
		}
		if body == nil {
			// The buffer is spent: the replies its frames made leave
			// together, the poller's before its next read.
			if m.readEnd != nil {
				m.readEnd(p.rank)
			}
			if !waiter {
				p.mu.Lock()
				p.holding = false
				m.flushNowLocked(p)
			}
			n, placed, err := m.read(s)
			if waiter { // a driving rank's after it, or with its next round
				p.mu.Lock()
				p.holding = false
				if err != nil {
					m.deferLocked(p)
					return err
				}
				m.flushNowLocked(p)
			} else if err != nil {
				return err // errWouldBlock: sinceRead carries to the resume
			}
			p.mu.Lock()
			p.holding = true
			p.mu.Unlock()
			s.rxBytes += uint64(n)
			m.rxReads.Add(1)
			m.rxCoalesce[coalesceBucket(s.sinceRead)].Add(1)
			s.sinceRead = 0
			if placed > 0 { // the read completed and delivered its frame
				m.placedFrames.Add(1)
				m.frameIn(s, placed)
			}
			continue
		}
		s.decided = false
		if err := wire.Decode(body, &s.fr); err != nil {
			return fmt.Errorf("netfab: undecodable frame from rank %d: %w", p.rank, err)
		}
		m.frameIn(s, len(body))
		switch s.fr.Kind {
		case wire.KindBeat: // its bytes were the message
		case wire.KindBye:
			m.noteBye(p) // keep draining: data may still arrive until FIN
		default:
			if m.rx != nil {
				m.rx(p.rank, &s.fr)
			}
		}
	}
}

// frameIn counts a frame of s with a body of n bytes as received.
func (m *Mesh) frameIn(s *rxStream, n int) {
	s.sinceRead++
	s.frames++
	m.framesRecv.Add(1)
	m.bytesRecv.Add(uint64(wire.LengthPrefix + n))
}

// stalled samples s's peer at now: how long its stream has delivered
// nothing, and whether that convicts it. A peer that said goodbye, a
// stream already down and a mesh that is closing are exempt. Call it only
// right after a read of s came up empty (see the file comment).
func (m *Mesh) stalled(s *rxStream, now time.Time) (time.Duration, bool) {
	d, dead := s.mon.Observe(m.hb, s.rxBytes, now)
	if !dead || m.closed.Load() {
		return d, false
	}
	s.p.mu.Lock()
	exempt := s.p.bye || s.p.closed || s.p.down
	s.p.mu.Unlock()
	return d, !exempt
}

// convict ends s: its peer kept the connection but went silent for d.
func (m *Mesh) convict(s *rxStream, d time.Duration) {
	s.dead = true
	m.markDown(s.p, fmt.Errorf("netfab: rank %d heartbeat stalled for %v", s.p.rank, d.Round(time.Millisecond)))
}

// readLoop is the fallback rx driver for streams the poller cannot take
// (in-memory pipes, platforms without one): a blocking goroutine per
// stream pumping the same state machine the poller drives. Its idleReader
// turns every beat interval without bytes into a would-block, which is
// where the peer's silence is measured.
func (m *Mesh) readLoop(s *rxStream) {
	defer m.readersWG.Done()
	for m.drain(s, false) {
		if d, dead := m.stalled(s, time.Now()); dead {
			m.convict(s, d)
			return
		}
	}
}

// idleReader is a blocking conn that gives up after idle without a byte,
// reporting errWouldBlock like the poller's nonblocking fdReader does.
type idleReader struct {
	conn net.Conn
	idle time.Duration
}

func (r *idleReader) Read(b []byte) (int, error) {
	r.conn.SetReadDeadline(time.Now().Add(r.idle))
	n, err := r.conn.Read(b)
	if n == 0 && errors.Is(err, os.ErrDeadlineExceeded) {
		err = errWouldBlock
	}
	return n, err
}
