package shmfab

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/beat"
	"repro/internal/futex"
	"repro/internal/wire"
)

// ErrMeshClosed reports a send attempted after Close.
var ErrMeshClosed = errors.New("shmfab: mesh closed")

// MaxInboundRings is the most inbound rings one mesh can have: the poller
// sleeps on all of their doorbells in one futex_waitv, which takes at most
// 128 words. A job of more than 129 ranks needs another poller design.
const MaxInboundRings = 128

// RingLimitError refuses a mesh with more than MaxInboundRings inbound
// rings (Attach).
type RingLimitError struct{ Rings int }

func (e *RingLimitError) Error() string {
	return fmt.Sprintf("shmfab: %d inbound rings, the doorbell sleeps on at most %d", e.Rings, MaxInboundRings)
}

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
	CompactSent   uint64 // puts, acks and notifications using the compact entry encoding
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

	// Parks counts the poller's sleeps on the doorbell, Rings the
	// FUTEX_WAKEs this rank's producers issued because the peer's
	// consumer slept. Neither moves while ranks keep driving their own
	// rings.
	Parks uint64
	Rings uint64
}

// Mesh is one rank's endpoint of the shared-memory fabric: it satisfies
// fabric.Link (structurally). Inbound rings have one consumer at a time,
// whoever holds rxMu: the poller goroutine, or a rank blocked in a wait
// that drives Progress. One poller and one heartbeat goroutine cover all
// peers — O(1) goroutines per process regardless of job size, matching the
// TCP mesh's single-poller rx.
//
// The poller steps aside while ranks drive the rings (BeginDrive/EndDrive)
// and sleeps on the inbound doorbells (ring.go) once it has been idle for
// pollSpin. Someone is responsible for every inbound entry: the poller
// while it is awake, a driver while one is counted, the producer while
// the poller sleeps on the armed words, and otherwise the poller once its
// step-aside nap ends. The poller re-polls right after it arms the words
// (DESIGN §9).
type Mesh struct {
	self, n int
	peers   []*shmPeer // nil at self
	segs    []*Segment

	rx       func(from int, fr *wire.Frame)
	readEnd  func(from int) // after each peer's batch in a round; nil from Start
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

	// Poller state. bells are the inbound doorbell words, one per peer;
	// drivers counts ranks between BeginDrive and EndDrive; aside is set
	// while the poller steps aside for them (resume wakes it), parked
	// while it sleeps on the doorbell, each from the moment it decides
	// until it is awake again; pins counts callers kicking the doorbell
	// outside rxMu, which Close waits out before it unmaps the segments.
	bells   []*uint32
	sleeper *sleeper
	drivers atomic.Int32
	aside   atomic.Bool
	resume  chan struct{}
	parked  atomic.Bool
	pins    atomic.Int32

	entriesSent, entriesRecv     atomic.Uint64
	waiterEntries                atomic.Uint64
	compactSent, genericSent     atomic.Uint64
	fragFrames                   atomic.Uint64
	bulkBytesSent, bulkBytesRecv atomic.Uint64
	sendStalls                   atomic.Uint64
	spillEntries, spillHighWater atomic.Uint64
	parks, rings                 atomic.Uint64
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
	if cfg.N-1 > MaxInboundRings {
		return nil, &RingLimitError{Rings: cfg.N - 1}
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
		quit:   make(chan struct{}),
		resume: make(chan struct{}, 1),
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
		p := &shmPeer{
			rank: q,
			prod: newProducer(newDirRing(s, prodDir)),
			cons: newConsumer(newDirRing(s, consDir)),
			mon:  beat.NewMonitor(now),
		}
		m.peers[q] = p
		m.bells = append(m.bells, p.cons.r.armed)
	}
	m.sleeper = newSleeper(m.bells)
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

		Parks: m.parks.Load(),
		Rings: m.rings.Load(),
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
	// Only a consuming round or a Send drains the list: a sleeping poller
	// must wake for it, or the reply waits for traffic that may never come.
	m.wakePoller()
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

// send publishes fr, compactly when it is a plain put, an ack or a
// notification. With wait it backs off while the ring or bulk region is
// full; without it publishes all of fr or nothing and reports which.
// Caller holds p.mu.
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
	case compactNotify(fr, m.self, p.rank):
		e, _, _, err := m.reserve(p, 0, wait)
		if e == nil {
			return false, err
		}
		encNotify(e, fr)
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
	m.publish(p)
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
		m.publish(p)
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
		m.publish(p)
		if sent == 0 {
			m.genericSent.Add(1)
			m.fragFrames.Add(1)
		}
		m.bulkBytesSent.Add(uint64(chunk))
		sent += chunk
	}
	return sent, nil
}

// publish publishes p's reserved entry, ringing the peer if it sleeps.
// Caller holds p.mu.
func (m *Mesh) publish(p *shmPeer) {
	if p.prod.publish() {
		m.rings.Add(1)
	}
	m.entriesSent.Add(1)
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
	m.wg.Add(1)
	go m.beatLoop()
	if len(m.bells) > 0 { // a one-rank job has nothing to poll
		m.wg.Add(1)
		go m.pollLoop()
	}
}

// Serve is Start for a fabric.Link: a ring entry is read in place, so
// place, the TCP stream's placed read, has nothing to do here. readEnd
// runs after each peer's batch of entries in a consuming round (pollOnce),
// on the goroutine that consumed them.
func (m *Mesh) Serve(rx func(from int, fr *wire.Frame),
	_ func(fr *wire.Frame, size int, rest func(dst []byte) error) (bool, error),
	readEnd func(from int),
	peerDown func(rank int, err error)) {
	m.readEnd = readEnd
	m.Start(rx, peerDown)
}

// pollSpin is how long the poller yield-spins over idle rings before it
// sleeps on the doorbell: traffic that resumes within a round trip finds
// it awake, without a FUTEX_WAKE on the producer's path.
const pollSpin = 500 * time.Microsecond

// asideSpin is how long the poller's own rounds must come up empty while a
// rank drives the rings before it steps aside. A rank that takes all its
// traffic in its waits parks the poller within one wait; a stream that
// also arrives between the waits keeps it polling beside them.
const asideSpin = 20 * time.Microsecond

// asideNap bounds a step-aside: a driver that found its event leaves the
// poller parked, so traffic for a rank that stops waiting and computes is
// taken at the latest one nap later. A shorter nap bounds nothing tighter:
// a sub-millisecond timer on an idle P fires after about a millisecond
// (EXPERIMENTS.md, "The shm poller sleeps on a futex doorbell").
const asideNap = time.Millisecond

// pollLoop is the rx goroutine: it runs a consuming round and yields
// between rounds. Once its own rounds have found nothing for asideSpin
// while a rank drives the rings, it steps aside; once they have found
// nothing for pollSpin, it sleeps on the doorbell (park). Entries a
// driving rank consumed do not count: the poller is idle while the ranks
// take their own traffic. Spilled replies, which wait only on a producer
// that moves within a round trip, keep it awake.
func (m *Mesh) pollLoop() {
	defer m.wg.Done()
	nap := time.NewTimer(asideNap)
	nap.Stop()
	var idleSince time.Time // zero while the poller's own rounds find work
	for !m.quitting() {
		_, n, spilling := m.round(false)
		switch {
		case n > 0:
			idleSince = time.Time{}
			continue
		case spilling:
			idleSince = time.Time{}
		case idleSince.IsZero():
			idleSince = time.Now()
		default:
			idle := time.Since(idleSince)
			if idle >= asideSpin && m.driven() {
				m.stepAside(nap)
				idleSince = time.Time{}
				continue
			}
			if idle >= pollSpin {
				m.park()
				idleSince = time.Time{}
				continue
			}
		}
		runtime.Gosched()
	}
}

// driven reports whether a rank drives the rings, so the poller should
// step aside. Once the mesh is closing nobody counts: the poller must see
// the peers' goodbyes.
func (m *Mesh) driven() bool { return m.drivers.Load() > 0 && !m.closed.Load() }

// spillPending reports whether any peer has replies waiting to go out.
func (m *Mesh) spillPending() bool {
	for _, p := range m.peers {
		if p != nil && p.spillN.Load() > 0 {
			return true
		}
	}
	return false
}

// stepAside parks the poller while ranks drive the rings: on a channel,
// not on the doorbell, so waking it is a goroutine switch and never an OS
// thread wakeup on a busy core. Producers ring only armed words, and an
// awake poller has disarmed them. It returns when a driver gives up or a
// reply spills (resume), when Close quits, or after asideNap, whichever
// comes first. aside is set before the poller re-reads the driver count
// and the spill lists, and drivers and spillers change their state before
// they read aside.
func (m *Mesh) stepAside(nap *time.Timer) {
	m.aside.Store(true)
	if m.driven() && !m.spillPending() {
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

// wakePoller wakes the poller if it stepped aside or sleeps on the
// doorbell. Whoever changes its state first (a spill, a drive's end)
// reads the poller's flags after, so a poller that has not yet gone to
// sleep sees the change instead.
func (m *Mesh) wakePoller() {
	if m.aside.Load() {
		m.wakeAside()
	}
	if m.parked.Load() && m.pin() {
		m.kick()
		m.pins.Add(-1)
	}
}

// wakeAside resumes a poller that stepped aside; a token left while it
// was not waiting only makes its next step-aside return at once.
func (m *Mesh) wakeAside() {
	select {
	case m.resume <- struct{}{}:
	default:
	}
}

// park puts the poller to sleep on the doorbell until a producer rings,
// a spilled reply, a given-up drive or Close kicks, or a word changes. It arms every word,
// then re-polls once, since a producer that published before the arm was
// visible will not ring; anything found meanwhile — an entry, busy rings,
// a spill, a driver, Close — undoes the arm instead of sleeping. It then
// waits on bellArmed, the value it decided on: rings and kicks change the
// word to values a sleeper never waits on. parked is set before the
// poller re-reads drivers and spills, and drivers, spillers and Close
// set their state before they read parked, so one of each pair always
// sees the other. A rank that starts driving while the poller sleeps leaves the
// words armed: its first inbound entry rings once, and the woken poller
// steps aside.
func (m *Mesh) park() {
	m.parked.Store(true)
	for _, b := range m.bells {
		atomic.StoreUint32(b, bellArmed)
	}
	locked, n, spilling := m.round(false)
	if locked && n == 0 && !spilling && !m.driven() && !m.spillPending() && !m.quitting() {
		// A goroutine the last round woke (a rank whose gate it
		// broadcast) is queued on this goroutine's P, which the blocking
		// wait keeps until the runtime retakes it: let it run first.
		runtime.Gosched()
		m.parks.Add(1)
		m.sleeper.wait()
	}
	m.parked.Store(false)
	for _, b := range m.bells {
		if atomic.LoadUint32(b) != bellAwake {
			atomic.StoreUint32(b, bellAwake)
		}
	}
}

// quitting reports whether Close has told the poller to exit.
func (m *Mesh) quitting() bool {
	select {
	case <-m.quit:
		return true
	default:
		return false
	}
}

// kick wakes a poller parked on the doorbell from outside a producer: it
// changes a word the poller waits on to bellKicked before it wakes it, so
// a poller that has decided to sleep but is not yet asleep returns at
// once. The caller pins the segments, or is Close.
func (m *Mesh) kick() {
	if len(m.bells) == 0 {
		return
	}
	atomic.StoreUint32(m.bells[0], bellKicked)
	futex.Wake(m.bells[0], 1)
}

// pin keeps the segments mapped until the matching m.pins.Add(-1); it
// fails once the mesh is closed. Close sets closed before it waits for
// pins to drain, and pin counts itself before it reads closed.
func (m *Mesh) pin() bool {
	m.pins.Add(1)
	if m.closed.Load() {
		m.pins.Add(-1)
		return false
	}
	return true
}

// BeginDrive hands the rings to a rank about to drive them
// (exec.Progressor): an awake poller steps aside once its own rounds have
// been empty for asideSpin, and the rank's own Progress calls consume.
func (m *Mesh) BeginDrive() { m.drivers.Add(1) }

// EndDrive takes the rings back from a driver. If the last driver out gave
// up, its rank parks until a delivery wakes it, so it wakes the poller: a
// poller asleep on the doorbell would wake on the next ring anyway, but
// waking it now takes the OS thread wakeup off the delivery's path. If
// the driver found its event, a poller that stepped aside stays aside
// until its nap ends or a later driver gives up, and one asleep on the
// doorbell sleeps on.
func (m *Mesh) EndDrive(found bool) {
	if m.drivers.Add(-1) == 0 && !found {
		m.wakePoller()
	}
}

// round is one consuming round if the rings are free (TryLock): it reports
// whether it took them, how many entries it consumed, and whether spilled
// replies still wait. A waiter's round after Close consumes nothing: Close
// unmaps the segments under rxMu once the poller, which must see the
// peers' goodbyes, has exited.
func (m *Mesh) round(waiter bool) (locked bool, n uint64, spilling bool) {
	if !m.rxMu.TryLock() {
		return false, 0, false
	}
	defer m.rxMu.Unlock()
	if waiter && m.closed.Load() {
		return true, 0, false
	}
	before := m.entriesRecv.Load()
	spilling = m.pollOnce()
	return true, m.entriesRecv.Load() - before, spilling
}

// pollOnce is one consuming round over every inbound ring: for each peer
// it first publishes whatever spilled replies now fit, then drains up to a
// batch of entries. It reports whether any spilled reply is still
// waiting. Caller holds rxMu.
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
		i := 0
		for ; ; i++ {
			e, ok := p.cons.poll()
			if !ok {
				if p.cons.closedAndDrained() {
					p.consDone = true
					p.byeSeen.Store(true)
				}
				break
			}
			if i == batch {
				break
			}
			m.consume(p, e)
		}
		if i > 0 && m.readEnd != nil {
			m.readEnd(p.rank)
		}
	}
	return spilling
}

// Progress consumes inbound entries on the calling goroutine — a rank
// blocked in a wait (exec.RealEnv.SetProgress) — and reports whether it
// consumed any. It never blocks: while the poller or another waiter holds
// the rings, or once the mesh is closed, it returns false.
func (m *Mesh) Progress() bool {
	_, n, _ := m.round(true)
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
	case entNotify:
		decNotify(e, p.rank, m.self, fr)
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
	// A poller that stepped aside, or sleeps on the doorbell, must see the
	// peers' goodbyes.
	m.wakeAside()
	m.kick()
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
	m.kick()
	m.wg.Wait()
	// A waiter still inside Progress finishes its round before the
	// segments go; any later one sees closed under the lock. A caller
	// still kicking the doorbell outside it holds a pin.
	for m.pins.Load() != 0 {
		runtime.Gosched()
	}
	m.rxMu.Lock()
	defer m.rxMu.Unlock()
	for _, s := range m.segs {
		if s != nil {
			s.Close()
		}
	}
	return nil
}
