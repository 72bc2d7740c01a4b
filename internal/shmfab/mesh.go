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

	// WaiterEntries counts the entries consumed by Progress — on the
	// goroutine of a rank blocked in a wait — rather than by the poller;
	// included in EntriesRecv.
	WaiterEntries uint64

	// SpillEntries counts replies (SendReply) that could not be published
	// at once — the producer was busy or the ring or bulk region full — and
	// went to the peer's spill list; SpillHighWater is the most bytes one
	// spill list ever held. A few small entries come from the poller
	// losing the producer to its own rank's Send; anything large means a
	// peer's outstanding gets and puts outran the ring.
	SpillEntries   uint64
	SpillHighWater uint64
}

// Mesh is one rank's endpoint of the shared-memory fabric: it satisfies
// fabric.Link (structurally). Inbound rings have one consumer at a time,
// whoever holds rxMu: the poller goroutine, or a rank blocked in a wait
// that drives Progress. One poller and one heartbeat goroutine cover all
// peers — O(1) goroutines per process regardless of job size, matching the
// TCP mesh's single-poller rx.
type Mesh struct {
	self, n int
	peers   []*shmPeer // nil at self
	segs    []*Segment

	rx       func(from int, fr *wire.Frame)
	peerDown func(rank int, err error)

	hb beat.Policy

	// rxMu makes its holder the consumer of every inbound ring: the
	// consumer-side peer state (cons, consDone, fragBuf, frScratch) and the
	// rx callback belong to whoever holds it.
	rxMu sync.Mutex

	closed   atomic.Bool
	suppress atomic.Bool // heartbeat suppressed: this rank plays dead
	quit     chan struct{}
	wg       sync.WaitGroup

	entriesSent, entriesRecv     atomic.Uint64
	waiterEntries                atomic.Uint64
	compactSent, genericSent     atomic.Uint64
	fragFrames                   atomic.Uint64
	bulkBytesSent, bulkBytesRecv atomic.Uint64
	sendStalls                   atomic.Uint64
	spillEntries, spillHighWater atomic.Uint64
}

type shmPeer struct {
	rank int

	// Producer side, serialized under mu (the rank and the deliveries of
	// whoever consumes both send).
	mu      sync.Mutex
	prod    *producer
	scratch []byte

	// Replies delivery could not publish at once, in order, each a
	// wire.Append encoding; sent is how much of the head went out as
	// fragments. Whoever holds mu drains the list before publishing
	// anything else, which keeps the pair FIFO.
	spillMu    sync.Mutex
	spill      []spilled
	spillBytes int
	spillN     atomic.Int32 // len(spill), for the consumer's lock-free check

	// Consumer side: touched only under the mesh's rxMu.
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
		WaiterEntries: m.waiterEntries.Load(),

		SpillEntries:   m.spillEntries.Load(),
		SpillHighWater: m.spillHighWater.Load(),
	}
}

// spilled is one reply waiting in a spill list.
type spilled struct {
	enc  []byte
	sent int
}

// Send publishes one frame onto the ring toward target. Blocks while the
// ring (or bulk region) is full — ring publication is this transport's
// flow control — and fails if the peer dies or the mesh closes meanwhile.
// Spilled replies go out first.
func (m *Mesh) Send(target int, fr *wire.Frame) error {
	p, err := m.peerFor(target)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := m.drainSpill(p, true); err != nil {
		return err
	}
	_, err = m.send(p, fr, true)
	return err
}

// SendReply is Send for a frame produced by delivery on the consuming
// goroutine (the poller, or a rank in Progress), which must never park: if
// it waited for ring space it would stop consuming every ring, and a peer
// doing the same would wedge the job. It publishes only if the producer is
// free (TryLock), nothing is spilled ahead of it, and the ring and bulk
// region have room; otherwise the encoded frame joins the peer's spill
// list, which every consuming round and the next Send drain in order.
func (m *Mesh) SendReply(target int, fr *wire.Frame) error {
	p, err := m.peerFor(target)
	if err != nil {
		return err
	}
	if p.mu.TryLock() {
		sent := false
		if m.drainSpill(p, false); p.spillN.Load() == 0 {
			sent, err = m.send(p, fr, false)
		}
		p.mu.Unlock()
		if sent || err != nil {
			return err
		}
	}
	enc := wire.Append(nil, fr)
	p.spillMu.Lock()
	p.spill = append(p.spill, spilled{enc: enc})
	p.spillN.Store(int32(len(p.spill)))
	p.spillBytes += len(enc)
	bytes := uint64(p.spillBytes)
	p.spillMu.Unlock()
	m.spillEntries.Add(1)
	for hw := m.spillHighWater.Load(); bytes > hw; hw = m.spillHighWater.Load() {
		if m.spillHighWater.CompareAndSwap(hw, bytes) {
			break
		}
	}
	return nil
}

func (m *Mesh) peerFor(target int) (*shmPeer, error) {
	if m.closed.Load() {
		return nil, ErrMeshClosed
	}
	if target < 0 || target >= m.n || target == m.self {
		return nil, fmt.Errorf("shmfab: bad send target %d", target)
	}
	p := m.peers[target]
	if p.down.Load() {
		return nil, fmt.Errorf("shmfab: peer %d is down", target)
	}
	return p, nil
}

// drainSpill publishes p's spilled replies in order. With wait it backs
// off while the ring is full; without it stops at the first reply that
// does not fit (a fragmented one keeps its progress). Caller holds p.mu.
func (m *Mesh) drainSpill(p *shmPeer, wait bool) error {
	for p.spillN.Load() > 0 {
		// Only the holder of mu touches the head; SendReply may append
		// (and move the backing array) meanwhile.
		p.spillMu.Lock()
		sp := p.spill[0]
		p.spillMu.Unlock()
		sent, err := m.publishEncoded(p, sp.enc, sp.sent, wait)
		p.spillMu.Lock()
		done := sent == len(sp.enc)
		if done {
			p.spillBytes -= len(sp.enc)
			p.spill[0] = spilled{}
			p.spill = p.spill[1:]
			p.spillN.Store(int32(len(p.spill)))
		} else {
			p.spill[0].sent = sent
		}
		p.spillMu.Unlock()
		if !done {
			return err
		}
	}
	return nil
}

// send publishes fr, compactly when it is a plain put or ack. With wait it
// backs off while the ring or bulk region is full; without it publishes
// all of fr or nothing and reports which. Caller holds p.mu.
func (m *Mesh) send(p *shmPeer, fr *wire.Frame, wait bool) (bool, error) {
	switch {
	case compactPut(fr, m.self, p.rank) && len(fr.Data) <= InlineCapacity:
		e, _, _, err := m.reserve(p, 0, wait)
		if e == nil {
			return false, err
		}
		encPutInline(e, fr)
	case compactPut(fr, m.self, p.rank) && len(fr.Data) <= maxBulkAlloc:
		e, off, buf, err := m.reserve(p, len(fr.Data), wait)
		if e == nil {
			return false, err
		}
		copy(buf, fr.Data)
		encPutBulk(e, fr, off)
		m.bulkBytesSent.Add(uint64(len(fr.Data)))
	case compactAck(fr, m.self, p.rank):
		e, _, _, err := m.reserve(p, 0, wait)
		if e == nil {
			return false, err
		}
		encAck(e, fr)
	default:
		// Generic path: the full wire encoding travels through bulk
		// (oversized puts land here too). A fragmented frame is never
		// started without wait: its tail could not be taken back.
		p.scratch = wire.Append(p.scratch[:0], fr)
		if !wait && len(p.scratch) > maxBulkAlloc {
			return false, nil
		}
		sent, err := m.publishEncoded(p, p.scratch, 0, wait)
		return err == nil && sent == len(p.scratch), err
	}
	p.prod.publish()
	m.entriesSent.Add(1)
	m.compactSent.Add(1)
	return true, nil
}

// publishEncoded publishes a wire.Append encoding from byte sent on: as
// one bulk frame entry, or as fragments streaming through bulk as the
// consumer frees it when the encoding exceeds maxBulkAlloc. It returns the
// new progress; without wait it stops at the first entry that does not
// fit. Caller holds p.mu.
func (m *Mesh) publishEncoded(p *shmPeer, enc []byte, sent int, wait bool) (int, error) {
	if len(enc) <= maxBulkAlloc {
		e, off, buf, err := m.reserve(p, len(enc), wait)
		if e == nil {
			return 0, err
		}
		copy(buf, enc)
		encFrame(e, off, len(enc))
		p.prod.publish()
		m.entriesSent.Add(1)
		m.genericSent.Add(1)
		m.bulkBytesSent.Add(uint64(len(enc)))
		return len(enc), nil
	}
	for sent < len(enc) {
		chunk := min(len(enc)-sent, fragChunk)
		e, off, buf, err := m.reserve(p, chunk, wait)
		if e == nil {
			return sent, err
		}
		copy(buf, enc[sent:sent+chunk])
		encFrag(e, sent == 0, off, chunk, len(enc))
		p.prod.publish()
		if sent == 0 {
			m.genericSent.Add(1)
			m.fragFrames.Add(1)
		}
		m.entriesSent.Add(1)
		m.bulkBytesSent.Add(uint64(chunk))
		sent += chunk
	}
	return sent, nil
}

// reserve claims the next ring entry and, when n > 0, n contiguous bulk
// bytes — entry first, which has no side effect until publish, so a failed
// try leaves nothing half-claimed. With wait it backs off while either is
// full; without it returns a nil entry at once.
func (m *Mesh) reserve(p *shmPeer, n int, wait bool) ([]byte, uint64, []byte, error) {
	for spins := 0; ; spins++ {
		if e, ok := p.prod.tryReserve(); ok {
			if n == 0 {
				return e, 0, nil, nil
			}
			if off, buf, ok := p.prod.tryBulk(n); ok {
				return e, off, buf, nil
			}
		}
		if !wait {
			return nil, 0, nil, nil
		}
		if err := m.stall(p, spins); err != nil {
			return nil, 0, nil, err
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
// alias the mapped segment and stay valid until rx returns — the entry and
// any bulk span it references retire right after. rx runs on the poller or
// on a rank inside Progress, one at a time. It may send replies (SendReply)
// but must not Send: a consumer waiting for ring space would stop
// consuming every ring.
func (m *Mesh) Start(rx func(from int, fr *wire.Frame), peerDown func(rank int, err error)) {
	m.rx = rx
	m.peerDown = peerDown
	m.wg.Add(2)
	go m.pollLoop()
	go m.beatLoop()
}

// pollLoop is the rx goroutine: it runs pollOnce under rxMu, with
// time-based adaptive backoff when everything is idle: yield-spin for the
// first stretch (a sleeping poller pays timer-slack latency on every
// wakeup — hundreds of microseconds per message hop — so the
// latency-critical regime, where traffic resumes within a round trip, must
// stay out of the timer), then escalate to short and finally long sleeps.
// Entries a waiting rank consumed count as traffic: the poller stays hot
// for the next wait that outlasts the waiter's budget. While a rank holds
// rxMu the poller only yields.
func (m *Mesh) pollLoop() {
	defer m.wg.Done()
	var idleSince time.Time
	seen := m.entriesRecv.Load()
	for {
		select {
		case <-m.quit:
			return
		default:
		}
		if !m.rxMu.TryLock() {
			runtime.Gosched()
			continue
		}
		spilling := m.pollOnce()
		m.rxMu.Unlock()
		recv := m.entriesRecv.Load()
		progress := recv != seen
		seen = recv
		if progress || spilling {
			// Spilled replies wait on the peer or on our rank's producer,
			// both of which move within a round trip: never sleep on them.
			idleSince = time.Time{}
			if !progress {
				runtime.Gosched()
			}
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

// pollOnce is one consuming round over every inbound ring: for each peer
// it first publishes whatever spilled replies now fit, then drains up to a
// batch of entries. It reports whether any spilled reply is still waiting.
// Caller holds rxMu.
func (m *Mesh) pollOnce() (spilling bool) {
	const batch = 64
	for _, p := range m.peers {
		if p == nil || p.consDone {
			continue
		}
		if p.down.Load() {
			p.consDone = true
			continue
		}
		if p.spillN.Load() > 0 && p.mu.TryLock() {
			// Close publishes the goodbye under mu after setting closed:
			// checked under the lock, nothing follows the goodbye.
			if !m.closed.Load() {
				m.drainSpill(p, false)
			}
			p.mu.Unlock()
		}
		spilling = spilling || p.spillN.Load() > 0
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
		}
	}
	return spilling
}

// Progress consumes inbound entries on the calling goroutine — a rank
// blocked in a wait (exec.RealEnv.SetProgress) — and reports whether it
// consumed any. It never blocks: while the poller or another waiter holds
// the rings, or once the mesh is closed, it returns false.
func (m *Mesh) Progress() bool {
	if !m.rxMu.TryLock() {
		return false
	}
	defer m.rxMu.Unlock()
	if m.closed.Load() {
		return false // Close may be releasing the segments
	}
	before := m.entriesRecv.Load()
	m.pollOnce()
	n := m.entriesRecv.Load() - before
	if n == 0 {
		return false
	}
	m.waiterEntries.Add(n)
	return true
}

// consume decodes and delivers one entry, then retires it with any bulk
// span it references. Data slices handed to rx alias the mapped segment,
// valid until rx returns, per the Link contract.
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
		m.rx(p.rank, fr)
		p.cons.advance()
	case entPutBulk:
		off, n := getU64(e, 24), int(getU64(e, 32))
		if !p.cons.bulkOK(off, n) {
			m.failPeer(p, fmt.Errorf("shmfab: bad bulk reference from %d", p.rank))
			return
		}
		decPut(e, p.rank, m.self, p.cons.bulkBytes(off, n), fr)
		m.rx(p.rank, fr)
		m.bulkBytesRecv.Add(uint64(n))
		p.cons.retireBulk(off, n)
		p.cons.advance()
	case entAck:
		decAck(e, p.rank, m.self, fr)
		m.rx(p.rank, fr)
		p.cons.advance()
	case entFrame:
		off, n := getU64(e, 24), int(getU64(e, 32))
		if !p.cons.bulkOK(off, n) {
			m.failPeer(p, fmt.Errorf("shmfab: bad bulk reference from %d", p.rank))
			return
		}
		if err := wire.Decode(p.cons.bulkBytes(off, n), fr); err != nil {
			m.failPeer(p, fmt.Errorf("shmfab: corrupt frame from %d: %w", p.rank, err))
			return
		}
		m.rx(p.rank, fr)
		m.bulkBytesRecv.Add(uint64(n))
		p.cons.retireBulk(off, n)
		p.cons.advance()
	case entFragFirst, entFragNext:
		off, chunk := getU64(e, 24), int(getU64(e, 32))
		if !p.cons.bulkOK(off, chunk) {
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
		p.fragBuf = append(p.fragBuf, p.cons.bulkBytes(off, chunk)...)
		m.bulkBytesRecv.Add(uint64(chunk))
		p.cons.retireBulk(off, chunk) // reassembly copied the chunk out
		p.cons.advance()
		if len(p.fragBuf) == p.fragFill {
			buf := p.fragBuf
			p.fragBuf, p.fragFill = nil, 0
			if err := wire.Decode(buf, fr); err != nil {
				m.failPeer(p, fmt.Errorf("shmfab: corrupt fragmented frame from %d: %w", p.rank, err))
				return
			}
			m.rx(p.rank, fr)
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
			m.drainSpill(p, false) // best effort: replies still spilled go first
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
	// A waiter still inside Progress finishes its round before the
	// segments go; any later one sees closed under the lock.
	m.rxMu.Lock()
	defer m.rxMu.Unlock()
	for _, s := range m.segs {
		if s != nil {
			s.Close()
		}
	}
	return nil
}
