package shmfab

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/beat"
	"repro/internal/wire"
)

// ErrMeshClosed reports a send attempted after Close.
var ErrMeshClosed = errors.New("shmfab: mesh closed")

// Config assembles one rank's mesh over pre-created segments.
type Config struct {
	// Self is this rank, N the job size.
	Self, N int
	// Segments is indexed by peer rank (nil at Self); Segments[q] is the
	// pair segment shared with rank q.
	Segments []*Segment
	// HeartbeatInterval is the producer liveness bump period (default 25ms).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout declares a peer dead after its heartbeat stalls this
	// long without a clean goodbye (default 5s).
	HeartbeatTimeout time.Duration
	// StartupGrace is the extended allowance for a peer that has never
	// beaten (still booting; default 10s).
	StartupGrace time.Duration
}

// Stats are the transport counters (monotonic, read via ReadStats).
type Stats struct {
	EntriesSent   uint64 // ring entries published
	EntriesRecv   uint64 // ring entries consumed
	CompactSent   uint64 // puts/acks using the compact entry encoding
	GenericSent   uint64 // frames taking the generic bulk encoding
	FragFrames    uint64 // oversized frames that fragmented
	BulkBytesSent uint64
	BulkBytesRecv uint64
	SendStalls    uint64 // backoff rounds while a ring or bulk region was full
}

// Mesh is one rank's endpoint of the shared-memory fabric: it satisfies
// fabric.Link (structurally). One poller goroutine drains every inbound
// ring and one heartbeat goroutine covers liveness for all peers — O(1)
// goroutines per process regardless of job size, matching the TCP mesh's
// single-poller rx.
type Mesh struct {
	self, n int
	peers   []*shmPeer // nil at self
	segs    []*Segment

	rx       func(from int, fr *wire.Frame, free func())
	peerDown func(rank int, err error)

	hb beat.Policy

	closed   atomic.Bool
	suppress atomic.Bool // heartbeat suppressed: this rank plays dead
	quit     chan struct{}
	wg       sync.WaitGroup

	entriesSent, entriesRecv     atomic.Uint64
	compactSent, genericSent     atomic.Uint64
	fragFrames                   atomic.Uint64
	bulkBytesSent, bulkBytesRecv atomic.Uint64
	sendStalls                   atomic.Uint64
}

type shmPeer struct {
	rank int

	// Producer side, serialized under mu (app goroutines and rx workers
	// both send).
	mu      sync.Mutex
	prod    *producer
	scratch []byte

	// Consumer side: touched only by the poller goroutine.
	cons      *consumer
	consDone  bool
	fragBuf   []byte
	fragFill  int
	frScratch wire.Frame // decode target, reset and reused per entry

	// Cross-side state.
	down    atomic.Bool // peer declared dead
	byeSeen atomic.Bool // clean goodbye observed (closed word + drained)

	// Heartbeat monitor: touched only by the beat goroutine.
	mon beat.Monitor
}

// Attach builds this rank's mesh over the given segments. The segments
// must already be mapped (launcher fds, NA_SHM_DIR files, or heap).
func Attach(cfg Config) (*Mesh, error) {
	if cfg.N <= 0 || cfg.Self < 0 || cfg.Self >= cfg.N {
		return nil, fmt.Errorf("shmfab: rank %d outside job of %d", cfg.Self, cfg.N)
	}
	if len(cfg.Segments) != cfg.N {
		return nil, fmt.Errorf("shmfab: %d segments for %d ranks", len(cfg.Segments), cfg.N)
	}
	m := &Mesh{
		self:  cfg.Self,
		n:     cfg.N,
		peers: make([]*shmPeer, cfg.N),
		segs:  cfg.Segments,
		hb: beat.Policy{
			Interval:     cfg.HeartbeatInterval,
			Timeout:      cfg.HeartbeatTimeout,
			StartupGrace: cfg.StartupGrace,
		}.WithDefaults(),
		quit: make(chan struct{}),
	}
	now := time.Now()
	for q := 0; q < cfg.N; q++ {
		if q == cfg.Self {
			continue
		}
		s := cfg.Segments[q]
		lo, hi := cfg.Self, q
		if lo > hi {
			lo, hi = hi, lo
		}
		if s == nil || s.Lo != lo || s.Hi != hi {
			return nil, fmt.Errorf("shmfab: segment for peer %d is not the (%d,%d) pair", q, lo, hi)
		}
		// Direction 0 flows Lo -> Hi.
		prodDir, consDir := 0, 1
		if cfg.Self == s.Hi {
			prodDir, consDir = 1, 0
		}
		m.peers[q] = &shmPeer{
			rank: q,
			prod: newProducer(newDirRing(s, prodDir)),
			cons: newConsumer(newDirRing(s, consDir)),
			mon:  beat.NewMonitor(now),
		}
	}
	return m, nil
}

// Self returns the local rank.
func (m *Mesh) Self() int { return m.self }

// N returns the job size.
func (m *Mesh) N() int { return m.n }

// ReadStats snapshots the transport counters.
func (m *Mesh) ReadStats() Stats {
	return Stats{
		EntriesSent:   m.entriesSent.Load(),
		EntriesRecv:   m.entriesRecv.Load(),
		CompactSent:   m.compactSent.Load(),
		GenericSent:   m.genericSent.Load(),
		FragFrames:    m.fragFrames.Load(),
		BulkBytesSent: m.bulkBytesSent.Load(),
		BulkBytesRecv: m.bulkBytesRecv.Load(),
		SendStalls:    m.sendStalls.Load(),
	}
}

// Send publishes one frame onto the ring toward target. Blocks while the
// ring (or bulk region) is full — ring publication is this transport's
// flow control — and fails if the peer dies or the mesh closes meanwhile.
func (m *Mesh) Send(target int, fr *wire.Frame) error {
	if m.closed.Load() {
		return ErrMeshClosed
	}
	if target < 0 || target >= m.n || target == m.self {
		return fmt.Errorf("shmfab: bad send target %d", target)
	}
	p := m.peers[target]
	if p.down.Load() {
		return fmt.Errorf("shmfab: peer %d is down", target)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return m.send(p, fr)
}

func (m *Mesh) send(p *shmPeer, fr *wire.Frame) error {
	if compactPut(fr, m.self, p.rank) {
		if len(fr.Data) <= InlineCapacity {
			e, err := m.waitEntry(p)
			if err != nil {
				return err
			}
			encPutInline(e, fr)
			p.prod.publish()
			m.entriesSent.Add(1)
			m.compactSent.Add(1)
			return nil
		}
		if len(fr.Data) <= maxBulkAlloc {
			off, buf, err := m.waitBulk(p, len(fr.Data))
			if err != nil {
				return err
			}
			copy(buf, fr.Data)
			e, err := m.waitEntry(p)
			if err != nil {
				return err
			}
			encPutBulk(e, fr, off)
			p.prod.publish()
			m.entriesSent.Add(1)
			m.compactSent.Add(1)
			m.bulkBytesSent.Add(uint64(len(fr.Data)))
			return nil
		}
		// Oversized put: fall through to the generic (fragmented) path.
	} else if compactAck(fr, m.self, p.rank) {
		e, err := m.waitEntry(p)
		if err != nil {
			return err
		}
		encAck(e, fr)
		p.prod.publish()
		m.entriesSent.Add(1)
		m.compactSent.Add(1)
		return nil
	}

	// Generic path: the full wire encoding travels through bulk.
	p.scratch = wire.Append(p.scratch[:0], fr)
	enc := p.scratch
	m.genericSent.Add(1)
	if len(enc) <= maxBulkAlloc {
		off, buf, err := m.waitBulk(p, len(enc))
		if err != nil {
			return err
		}
		copy(buf, enc)
		e, err := m.waitEntry(p)
		if err != nil {
			return err
		}
		encFrame(e, off, len(enc))
		p.prod.publish()
		m.entriesSent.Add(1)
		m.bulkBytesSent.Add(uint64(len(enc)))
		return nil
	}
	// Fragmented: chunks stream through bulk as the consumer frees them.
	m.fragFrames.Add(1)
	total := len(enc)
	first := true
	for len(enc) > 0 {
		chunk := len(enc)
		if chunk > fragChunk {
			chunk = fragChunk
		}
		off, buf, err := m.waitBulk(p, chunk)
		if err != nil {
			return err
		}
		copy(buf, enc[:chunk])
		e, err := m.waitEntry(p)
		if err != nil {
			return err
		}
		encFrag(e, first, off, chunk, total)
		p.prod.publish()
		m.entriesSent.Add(1)
		m.bulkBytesSent.Add(uint64(chunk))
		enc = enc[chunk:]
		first = false
	}
	return nil
}

// waitEntry reserves the next ring slot, backing off while the ring is
// full. The reservation is private until publish().
func (m *Mesh) waitEntry(p *shmPeer) ([]byte, error) {
	for spins := 0; ; spins++ {
		if e, ok := p.prod.tryReserve(); ok {
			return e, nil
		}
		if err := m.stall(p, spins); err != nil {
			return nil, err
		}
	}
}

// waitBulk reserves n contiguous bulk bytes, backing off while the region
// is full.
func (m *Mesh) waitBulk(p *shmPeer, n int) (uint64, []byte, error) {
	for spins := 0; ; spins++ {
		if off, buf, ok := p.prod.tryBulk(n); ok {
			return off, buf, nil
		}
		if err := m.stall(p, spins); err != nil {
			return 0, nil, err
		}
	}
}

// stall is one backoff round of a full-ring wait: fail fast if the peer
// died or the mesh closed, otherwise yield (briefly sleeping once the
// consumer is clearly behind).
func (m *Mesh) stall(p *shmPeer, spins int) error {
	if p.down.Load() {
		return fmt.Errorf("shmfab: peer %d died with the ring full", p.rank)
	}
	if m.closed.Load() {
		return ErrMeshClosed
	}
	m.sendStalls.Add(1)
	if spins < 200 {
		runtime.Gosched()
	} else {
		time.Sleep(20 * time.Microsecond)
	}
	return nil
}

// Start installs the receive callbacks and launches the poller and
// heartbeat goroutines. The rx contract matches fabric.Link: frame slices
// alias the mapped segment and must be copied before rx returns.
func (m *Mesh) Start(rx func(from int, fr *wire.Frame), peerDown func(rank int, err error)) {
	m.StartBorrowed(func(from int, fr *wire.Frame, free func()) {
		rx(from, fr)
		if free != nil {
			free()
		}
	}, peerDown)
}

// StartBorrowed is Start for a receiver that can account for loans: when
// a frame's Data lives in the segment's bulk region, rx gets a non-nil
// free and may retain the bytes past return — the span is not reused
// until free is called (exactly once, from any goroutine). This is what
// lets the fabric commit bulk puts straight from shared memory with no
// staging copy.
func (m *Mesh) StartBorrowed(rx func(from int, fr *wire.Frame, free func()), peerDown func(rank int, err error)) {
	m.rx = rx
	m.peerDown = peerDown
	m.wg.Add(2)
	go m.pollLoop()
	go m.beatLoop()
}

// pollLoop is the single rx goroutine: it round-robins every inbound
// ring, draining up to a batch per peer per round, with time-based
// adaptive backoff when everything is idle: yield-spin for the first
// stretch (a sleeping poller pays timer-slack latency on every wakeup —
// hundreds of microseconds per message hop — so the latency-critical
// regime, where traffic resumes within a round trip, must stay out of
// the timer), then escalate to short and finally long sleeps.
func (m *Mesh) pollLoop() {
	defer m.wg.Done()
	const batch = 64
	var idleSince time.Time
	for {
		progress := false
		for _, p := range m.peers {
			if p == nil || p.consDone {
				continue
			}
			if p.down.Load() {
				p.consDone = true
				continue
			}
			for i := 0; i < batch; i++ {
				e, ok := p.cons.poll()
				if !ok {
					if p.cons.closedAndDrained() {
						p.consDone = true
						p.byeSeen.Store(true)
					}
					break
				}
				m.consume(p, e)
				progress = true
			}
		}
		select {
		case <-m.quit:
			return
		default:
		}
		if progress {
			idleSince = time.Time{}
			continue
		}
		if idleSince.IsZero() {
			idleSince = time.Now()
			runtime.Gosched()
			continue
		}
		switch elapsed := time.Since(idleSince); {
		case elapsed < 500*time.Microsecond:
			runtime.Gosched()
		case elapsed < 10*time.Millisecond:
			time.Sleep(50 * time.Microsecond)
		default:
			time.Sleep(500 * time.Microsecond)
		}
	}
}

// consume decodes and delivers one entry, then retires it. Data slices
// handed to rx alias the mapped segment; the fabric's ingest path copies
// before returning, per the Link contract.
func (m *Mesh) consume(p *shmPeer, e []byte) {
	m.entriesRecv.Add(1)
	// Decode into the peer's scratch frame: rx either finishes with the
	// frame before returning or copies the fields it keeps (the Data
	// slice points into the segment, not the frame), so the struct is
	// reusable — and passing a heap-resident pointer keeps the per-entry
	// path allocation-free.
	fr := &p.frScratch
	*fr = wire.Frame{}
	switch e[0] {
	case entPut:
		n := int(getU16(e, 2))
		if n > InlineCapacity {
			m.failPeer(p, fmt.Errorf("shmfab: inline length %d from %d", n, p.rank))
			return
		}
		decPut(e, p.rank, m.self, e[24:24+n], fr)
		m.rx(p.rank, fr, nil)
		p.cons.advance()
	case entPutBulk:
		off, n := getU64(e, 24), int(getU64(e, 32))
		if !bulkOK(off, n) {
			m.failPeer(p, fmt.Errorf("shmfab: bad bulk reference from %d", p.rank))
			return
		}
		sp := p.cons.deferBulk(n)
		decPut(e, p.rank, m.self, p.cons.bulkBytes(off, n), fr)
		m.rx(p.rank, fr, sp.fn)
		m.bulkBytesRecv.Add(uint64(n))
		p.cons.advance()
	case entAck:
		decAck(e, p.rank, m.self, fr)
		m.rx(p.rank, fr, nil)
		p.cons.advance()
	case entFrame:
		off, n := getU64(e, 24), int(getU64(e, 32))
		if !bulkOK(off, n) {
			m.failPeer(p, fmt.Errorf("shmfab: bad bulk reference from %d", p.rank))
			return
		}
		if err := wire.Decode(p.cons.bulkBytes(off, n), fr); err != nil {
			m.failPeer(p, fmt.Errorf("shmfab: corrupt frame from %d: %w", p.rank, err))
			return
		}
		sp := p.cons.deferBulk(n)
		m.rx(p.rank, fr, sp.fn)
		m.bulkBytesRecv.Add(uint64(n))
		p.cons.advance()
	case entFragFirst, entFragNext:
		off, chunk := getU64(e, 24), int(getU64(e, 32))
		if !bulkOK(off, chunk) {
			m.failPeer(p, fmt.Errorf("shmfab: bad bulk reference from %d", p.rank))
			return
		}
		if e[0] == entFragFirst {
			total := int(getU64(e, 40))
			if total <= 0 || total > wire.MaxFrame {
				m.failPeer(p, fmt.Errorf("shmfab: bad fragment total %d from %d", total, p.rank))
				return
			}
			p.fragBuf = make([]byte, 0, total)
			p.fragFill = total
		}
		if p.fragFill == 0 || len(p.fragBuf)+chunk > p.fragFill {
			m.failPeer(p, fmt.Errorf("shmfab: stray fragment from %d", p.rank))
			return
		}
		sp := p.cons.deferBulk(chunk)
		p.fragBuf = append(p.fragBuf, p.cons.bulkBytes(off, chunk)...)
		m.bulkBytesRecv.Add(uint64(chunk))
		p.cons.advance()
		p.cons.releaseBulk(sp) // reassembly copied the chunk out
		if len(p.fragBuf) == p.fragFill {
			buf := p.fragBuf
			p.fragBuf, p.fragFill = nil, 0
			if err := wire.Decode(buf, fr); err != nil {
				m.failPeer(p, fmt.Errorf("shmfab: corrupt fragmented frame from %d: %w", p.rank, err))
				return
			}
			m.rx(p.rank, fr, nil)
		}
	default:
		m.failPeer(p, fmt.Errorf("shmfab: unknown entry kind %d from %d", e[0], p.rank))
	}
}

// SuppressHeartbeat stops bumping this rank's liveness word in every
// outbound direction, so peers' detectors see exactly what a frozen
// process would produce: an open segment whose heartbeat has stalled. The
// fault injector's hang/crash modes use it — a hung rank keeps its segment
// mapped and keeps consuming, but must still fan out ErrPeerFailed at the
// survivors once the timeout elapses. Peer monitoring continues.
func (m *Mesh) SuppressHeartbeat() { m.suppress.Store(true) }

// beatLoop bumps this rank's heartbeat in every outbound direction and
// watches every peer's: a stalled heartbeat without a clean goodbye is a
// dead peer.
func (m *Mesh) beatLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.hb.Interval)
	defer t.Stop()
	for {
		select {
		case <-m.quit:
			return
		case <-t.C:
		}
		now := time.Now()
		suppressed := m.suppress.Load()
		for _, p := range m.peers {
			if p == nil {
				continue
			}
			if !suppressed {
				p.prod.beat()
			}
			if p.down.Load() || p.byeSeen.Load() {
				continue
			}
			stalled, dead := p.mon.Observe(m.hb, p.cons.heartbeatValue(), now)
			if dead && !p.cons.closedAndDrained() { // else: clean goodbye pending the poller's drain
				m.failPeer(p, fmt.Errorf("shmfab: peer %d heartbeat stalled for %v", p.rank, stalled))
			}
		}
	}
}

// failPeer marks a peer dead (idempotently) and fires the peerDown
// callback unless the mesh itself is closing.
func (m *Mesh) failPeer(p *shmPeer, err error) {
	if p.down.Swap(true) {
		return
	}
	if m.peerDown != nil && !m.closed.Load() {
		m.peerDown(p.rank, err)
	}
}

// Close tears the mesh down. Graceful close publishes the goodbye flag
// (ordered after every prior publish) and waits briefly for peers'
// goodbyes so nobody unmaps a segment a peer is still filling; abrupt
// close (after a rank error) skips the goodbye — peers see the heartbeat
// stall and declare this rank dead, exactly like a crash.
func (m *Mesh) Close(graceful bool) error {
	if m.closed.Swap(true) {
		return nil
	}
	if graceful {
		for _, p := range m.peers {
			if p == nil {
				continue
			}
			p.mu.Lock()
			p.prod.close()
			p.mu.Unlock()
		}
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			all := true
			for _, p := range m.peers {
				if p != nil && !p.byeSeen.Load() && !p.down.Load() {
					all = false
					break
				}
			}
			if all {
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	close(m.quit)
	m.wg.Wait()
	// Outstanding loans: a receive worker may still be committing from a
	// borrowed bulk span. Wait for every span to come home before the
	// segment memory can be unmapped.
	loanDeadline := time.Now().Add(2 * time.Second)
	for _, p := range m.peers {
		if p == nil {
			continue
		}
		for !p.cons.bulkIdle() && time.Now().Before(loanDeadline) {
			time.Sleep(100 * time.Microsecond)
		}
	}
	for _, s := range m.segs {
		if s != nil {
			s.Close()
		}
	}
	return nil
}
