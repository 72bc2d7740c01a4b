package netfab

// The receive path as a resumable state machine.
//
// Every peer stream owns an rxStream: the framer, the scratch frame and the
// peer's liveness monitor. The bytes come from a nonblocking fd read in a
// poll round, by the process-wide poller or by a rank driving the streams
// (Progress), whichever holds the mesh's rxMu: the read returns
// errWouldBlock when the socket has nothing, and the machine simply stops
// mid-stride and resumes on the next round.
//
// Liveness is judged here and nowhere else, by the goroutine that reads
// the stream, right after a read came up empty: a reader parked inside rx
// (committing a delivery) judges nobody, and when it resumes it reads what
// piled up in the socket before it measures any silence. A stalled local
// reader therefore never convicts a healthy peer. The same goroutine
// judges the outbound side (writeStalled): a peer whose socket refused
// this rank's queue is convicted only if a write made then still finds
// it refusing, so a round that comes late to EPOLLOUT convicts nobody.
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
// already buffered, not a put, no callback) completes through the framer,
// as every frame did before.

import (
	"errors"
	"fmt"
	"io"
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
	r    io.Reader // the socket's fdReader
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
	// is the stream's placed-read half.
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
		if m.place != nil {
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

// writeStalled samples p's outbound side at now: how long the socket has
// refused its queue without taking a byte, and whether that reaches
// WriteTimeout, convicting a peer that stopped draining. The exemptions
// are stalled's.
func (m *Mesh) writeStalled(p *peer, now time.Time) (time.Duration, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.outArmed || p.bye || p.closed || p.down || m.closed.Load() {
		return 0, false
	}
	d := now.Sub(p.refusedAt)
	return d, d >= m.cfg.WriteTimeout
}

// convict ends s: its peer kept the connection but stopped talking or
// draining, as err says.
func (m *Mesh) convict(s *rxStream, err error) {
	s.dead = true
	m.markDown(s.p, err)
}
