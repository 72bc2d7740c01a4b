// Package netfab is the cross-process TCP transport under the fabric.
//
// A Mesh is one rank's view of a fully connected clique of OS processes:
// one TCP stream per peer, each carrying length-prefixed wire.Frame bodies.
// Bootstrap is a rendezvous through rank 0: the root listens on a known
// address, every other rank opens its own listener and dials the root with
// a Hello; once all ranks have reported in, the root broadcasts the Roster
// of listener addresses, rank i dials every rank below it (so each pair
// gets exactly one connection), peers report Ready, and the root releases
// the job with Go.
//
// Teardown distinguishes clean shutdown from failure with a Bye handshake:
// a rank that finishes its body sends Bye on every stream before closing.
// A stream that ends without a Bye — RST, EOF, write timeout — is a peer
// failure and is reported through the peerDown callback, which the fabric
// maps onto its peer-failure detector (ErrPeerFailed). So is a stream that
// stays open but goes silent: every rank keeps its outbound streams audibly
// alive (an empty Beat frame whenever one carried nothing for an interval)
// and a peer whose stream delivers no byte for the detector's timeout
// (internal/beat, the policy the shared-memory mesh uses too) is a hung
// process, convicted the same way.
//
// The package deliberately knows nothing about the fabric: it moves frames
// between ranks. internal/fabric defines a Link interface that *Mesh
// satisfies structurally, keeping this package a leaf over internal/wire,
// internal/beat and the standard library.
package netfab

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/beat"
	"repro/internal/wire"
)

// Config parameterizes one rank's mesh membership.
type Config struct {
	Self int // this process's rank
	N    int // total ranks in the job

	// RootAddr is the rendezvous address rank 0 listens on and everyone
	// else dials ("host:port"). Ignored by rank 0 when RootListener is set.
	RootAddr string

	// RootListener, when non-nil, is a pre-bound listener rank 0 adopts
	// instead of binding RootAddr itself. The launcher uses this to pick
	// the port before spawning children, eliminating the bind race.
	RootListener net.Listener

	// DialTimeout bounds each bootstrap dial (default 10s). Bootstrap as a
	// whole retries dials until this much time has elapsed, so children
	// racing the root's bind resolve themselves.
	DialTimeout time.Duration

	// WriteTimeout bounds each frame write on an established stream
	// (default 10s). A peer that stops draining its socket for this long
	// is treated as failed.
	WriteTimeout time.Duration

	// KeepRootListener leaves RootListener open after bootstrap instead of
	// closing it, so the same rendezvous point can admit a later world
	// generation (recovery re-bootstrap after a rank death). Only
	// meaningful at rank 0 with RootListener set.
	KeepRootListener bool

	// Gen is the world generation this bootstrap forms (0 for the first).
	// The root stamps it on the Roster broadcast; peers adopt the root's
	// value, so a respawned process that lost count learns the current
	// generation from the rendezvous. Informational beyond that — frames
	// carry no generation tag because every generation builds fresh
	// streams.
	Gen int

	// Rejoin marks this process as a respawned rank re-entering an
	// existing job: its rendezvous hello uses wire.KindRejoin so the root
	// can record the admission (Mesh.Rejoined at the root lists such
	// ranks for the recovery layer).
	Rejoin bool
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	return cfg
}

// RxCoalesceBuckets is the number of buckets in the frames-per-read and
// frames-per-write histograms; bucket i counts syscalls that completed
// coalesceBucketLo[i]..hi frames (0, 1, 2-4, 5-16, 17-64, 65+).
const RxCoalesceBuckets = 6

// coalesceBucket maps a frames-completed-per-syscall count to its
// histogram bucket.
func coalesceBucket(frames int) int {
	switch {
	case frames <= 0:
		return 0
	case frames == 1:
		return 1
	case frames <= 4:
		return 2
	case frames <= 16:
		return 3
	case frames <= 64:
		return 4
	}
	return 5
}

// Stats counts mesh traffic (monotonic, safe to read concurrently).
type Stats struct {
	FramesSent, FramesRecv uint64
	BytesSent, BytesRecv   uint64

	// TxFlushes counts write syscalls that moved bytes: each writes one
	// stream's whole queue, and a Send's own frame riding at its end.
	// FramesSent/TxFlushes is the tx batching factor.
	TxFlushes uint64
	// TxCoalesce is the frames-per-write histogram, in RxCoalesce's buckets.
	TxCoalesce [RxCoalesceBuckets]uint64
	// RxReads counts read syscalls on established streams (one per framer
	// fill).
	RxReads uint64
	// RxCoalesce is a histogram of frames completed per read: buckets
	// count reads yielding 0, 1, 2-4, 5-16, 17-64, and 65+ frames.
	RxCoalesce [RxCoalesceBuckets]uint64
	// ReplyQueuedHighWater is the most bytes replies (SendReply) ever held
	// in one stream's queue beyond the bound rank-context sends respect:
	// the memory the never-park rule costs. Zero unless a peer's
	// outstanding gets and puts outran the socket.
	ReplyQueuedHighWater uint64
}

// txChunk is one pending flush segment: encoded frames appended back to
// back, written as one element of a net.Buffers batch.
type txChunk struct {
	buf    []byte
	off    int // leading bytes of buf already written (only the queue's first chunk)
	frames int
}

const (
	// txChunkSize is the target encoded size of one pending chunk; a
	// frame larger than this gets a chunk to itself.
	txChunkSize = 64 << 10
	// txMaxPending bounds the queued-but-unflushed bytes per peer:
	// rank-context senders beyond it block until the writer drains
	// (backpressure). Replies never block and may exceed it.
	txMaxPending = 4 << 20
	// txChunkRecycleCap: chunks that grew beyond this are handed to the
	// GC instead of the freelist, so one jumbo frame doesn't pin memory.
	txChunkRecycleCap = 256 << 10
	// rxBufSize is the framer's initial read-buffer size per stream.
	rxBufSize = 256 << 10
)

// peer is one established stream to another rank.
//
// Frames queue as encoded chunks, and whoever claims the conn (flushing)
// writes the whole queue as one batch. A Send that finds the conn free
// writes the queue with its own frame at the end, blocking, so a frame
// never waits for a goroutine wakeup. Replies the rx goroutine makes to
// what one read brought in are held and leave in one nonblocking writev
// before its next read (see pump). What a flush leaves queued goes to the
// writer goroutine (writeLoop), woken by the doorbell.
type peer struct {
	rank int
	conn net.Conn
	nb   nbWriter // nonblocking writes on conn's fd (the rx goroutine's flushes)

	// Only the goroutine that set flushing touches these. wbufs is the copy
	// of the batch WriteTo consumes: a field, so writing allocates nothing.
	bufs, wbufs net.Buffers
	encBuf      []byte

	mu           sync.Mutex // guards all fields below
	sendable     sync.Cond  // signaled when a flush completes or state changes
	chunks       []*txChunk // pending encoded frames, in send order
	free         []*txChunk // chunk recycle list
	pendingBytes int        // unwritten bytes in chunks
	flushing     bool       // a goroutine is writing a batch on the conn
	holding      bool       // the rx goroutine delivers a read from this stream: replies wait for the next
	sent         bool       // a frame was submitted since the beat loop last looked
	closed       bool       // local close: writes are errors
	bye          bool       // remote sent Bye: writes are silently dropped
	down         bool       // stream failed: writes are errors, peerDown fired

	doorbell chan struct{} // capacity 1: wakes the writer goroutine
}

// Mesh is one rank's set of streams to every other rank in the job.
type Mesh struct {
	cfg   Config
	peers []*peer // index by rank; nil at Self

	rx       func(from int, fr *wire.Frame)
	peerDown func(rank int, err error)

	// hb is the liveness timing: the shared detector's defaults, which
	// in-package tests shorten before Start.
	hb       beat.Policy
	suppress atomic.Bool // heartbeat suppressed: this rank plays dead

	framesSent, framesRecv atomic.Uint64
	bytesSent, bytesRecv   atomic.Uint64
	txFlushes, rxReads     atomic.Uint64
	txCoalesce, rxCoalesce [RxCoalesceBuckets]atomic.Uint64
	replyHighWater         atomic.Uint64

	// poller, when non-nil, is the process-wide rx driver: one goroutine
	// multiplexing every pollable stream (see poller_linux.go). Streams it
	// cannot take run a fallback reader goroutine each; rxGoroutines is
	// the resulting total, fixed at Start.
	poller       *poller
	pollerWG     sync.WaitGroup
	rxGoroutines int

	// gen is the world generation adopted at bootstrap (the root's
	// cfg.Gen, learned from the Roster by everyone else); rejoined lists
	// the ranks the root admitted via a Rejoin hello this bootstrap.
	gen      int
	rejoined []int

	closeOnce sync.Once
	quitOnce  sync.Once // Close and abruptClose both release the writers
	closed    atomic.Bool
	quit      chan struct{} // closed at teardown: writer goroutines exit
	readersWG sync.WaitGroup
	writersWG sync.WaitGroup // per-peer writers and the beat loop

	byeMu   sync.Mutex
	byeFrom map[int]bool
	byeCond chan struct{} // closed and re-made as Byes arrive
}

// ErrMeshClosed is returned by Send after the mesh has been closed.
var ErrMeshClosed = errors.New("netfab: mesh closed")

// Bootstrap performs the rendezvous and returns a connected Mesh. It
// blocks until every pair of ranks has an established stream and the root
// has released the job. The returned mesh is quiescent: no reader
// goroutines run until Start is called, so the caller can install
// callbacks before the first frame can arrive.
func Bootstrap(cfg Config) (*Mesh, error) {
	cfg = cfg.withDefaults()
	if cfg.N <= 0 || cfg.Self < 0 || cfg.Self >= cfg.N {
		return nil, fmt.Errorf("netfab: bad rank %d of %d", cfg.Self, cfg.N)
	}
	m := newMesh(cfg)
	if cfg.N == 1 {
		return m, nil
	}
	var err error
	if cfg.Self == 0 {
		err = m.bootstrapRoot()
	} else {
		err = m.bootstrapPeer()
	}
	if err != nil {
		m.abruptClose()
		return nil, err
	}
	return m, nil
}

// bootstrapRoot accepts one Hello per peer, broadcasts the Roster, waits
// for all Readys, then broadcasts Go. With KeepRootListener the supplied
// listener survives the bootstrap so a recovery re-bootstrap can reuse the
// rendezvous point; the accept loop then also tolerates stale connections
// (a respawned peer's abandoned earlier attempt) by taking the newest
// stream per rank instead of erroring on duplicates.
func (m *Mesh) bootstrapRoot() error {
	ln := m.cfg.RootListener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", m.cfg.RootAddr)
		if err != nil {
			return fmt.Errorf("netfab: root listen %s: %w", m.cfg.RootAddr, err)
		}
	}
	keep := m.cfg.KeepRootListener && m.cfg.RootListener != nil
	if !keep {
		defer ln.Close()
	}
	deadline := time.Now().Add(m.cfg.DialTimeout)
	if dl, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		dl.SetDeadline(deadline)
		if keep {
			defer dl.SetDeadline(time.Time{}) // re-arm for the next generation
		}
	}
	m.gen = m.cfg.Gen

	addrs := make([]string, m.cfg.N)
	addrs[0] = ln.Addr().String()
	for have := 0; have < m.cfg.N-1; {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("netfab: root accept: %w", err)
		}
		fr, err := readFrame(conn, deadline)
		if err != nil {
			// A connection that never produced a hello: typically the
			// abandoned first attempt of a peer that timed out and retried
			// (respawn supervisors redial). Skip it; the deadline on the
			// listener still bounds the whole rendezvous.
			conn.Close()
			continue
		}
		if err := m.checkHello(fr); err != nil {
			conn.Close()
			return err
		}
		r := fr.Origin
		if r <= 0 || r >= m.cfg.N {
			conn.Close()
			return fmt.Errorf("netfab: hello from out-of-range rank %d", r)
		}
		// The peer advertises only its listener port; the host that
		// actually reached us is authoritative.
		host, _, err := net.SplitHostPort(conn.RemoteAddr().String())
		if err != nil {
			host = "127.0.0.1"
		}
		_, port, err := net.SplitHostPort(fr.Strs[0])
		if err != nil {
			conn.Close()
			return fmt.Errorf("netfab: rank %d advertised bad addr %q: %w", r, fr.Strs[0], err)
		}
		if m.peers[r] != nil {
			// The rank reconnected (a respawned process retrying the
			// rendezvous): the newest stream wins.
			m.peers[r].conn.Close()
			have--
		}
		addrs[r] = net.JoinHostPort(host, port)
		m.peers[r] = newPeer(r, conn)
		if fr.Kind == wire.KindRejoin && !contains(m.rejoined, r) {
			m.rejoined = append(m.rejoined, r)
		}
		have++
	}

	roster := &wire.Frame{Kind: wire.KindRoster, Origin: 0, Operand: uint64(m.cfg.Gen), Strs: addrs}
	for r := 1; r < m.cfg.N; r++ {
		if err := m.writeFrame(m.peers[r], roster); err != nil {
			return fmt.Errorf("netfab: root sending roster to rank %d: %w", r, err)
		}
	}
	for r := 1; r < m.cfg.N; r++ {
		fr, err := readFrame(m.peers[r].conn, deadline)
		if err != nil || fr.Kind != wire.KindReady {
			return fmt.Errorf("netfab: waiting for ready from rank %d: %v", r, err)
		}
	}
	goFr := &wire.Frame{Kind: wire.KindGo, Origin: 0}
	for r := 1; r < m.cfg.N; r++ {
		if err := m.writeFrame(m.peers[r], goFr); err != nil {
			return fmt.Errorf("netfab: root sending go to rank %d: %w", r, err)
		}
	}
	return nil
}

// bootstrapPeer dials the root, learns the roster, dials every lower
// non-root rank, accepts connections from higher ranks, and waits for Go.
func (m *Mesh) bootstrapPeer() error {
	deadline := time.Now().Add(m.cfg.DialTimeout)

	// Our own listener, for ranks above us. Port 0: the kernel picks.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("netfab: rank %d listen: %w", m.cfg.Self, err)
	}
	defer ln.Close()
	if dl, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		dl.SetDeadline(deadline)
	}

	rootConn, err := dialRetry(m.cfg.RootAddr, deadline)
	if err != nil {
		return fmt.Errorf("netfab: rank %d dialing root %s: %w", m.cfg.Self, m.cfg.RootAddr, err)
	}
	m.peers[0] = newPeer(0, rootConn)
	helloKind := wire.KindHello
	if m.cfg.Rejoin {
		helloKind = wire.KindRejoin
	}
	hello := &wire.Frame{
		Kind:    helloKind,
		Origin:  m.cfg.Self,
		Operand: uint64(m.cfg.N),
		Compare: wire.Version,
		Gen:     uint64(m.cfg.Gen),
		Strs:    []string{ln.Addr().String()},
	}
	if err := m.writeFrame(m.peers[0], hello); err != nil {
		return fmt.Errorf("netfab: rank %d sending hello: %w", m.cfg.Self, err)
	}
	roster, err := readFrame(rootConn, deadline)
	if err != nil || roster.Kind != wire.KindRoster || len(roster.Strs) != m.cfg.N {
		return fmt.Errorf("netfab: rank %d waiting for roster: %v", m.cfg.Self, err)
	}
	m.gen = int(roster.Operand)

	// Dial down, accept up: rank i originates the connection to every
	// j < i, so each unordered pair has exactly one stream.
	for r := 1; r < m.cfg.Self; r++ {
		conn, err := dialRetry(roster.Strs[r], deadline)
		if err != nil {
			return fmt.Errorf("netfab: rank %d dialing rank %d at %s: %w", m.cfg.Self, r, roster.Strs[r], err)
		}
		p := newPeer(r, conn)
		m.peers[r] = p
		if err := m.writeFrame(p, hello); err != nil {
			return fmt.Errorf("netfab: rank %d hello to rank %d: %w", m.cfg.Self, r, err)
		}
	}
	for have := 0; have < m.cfg.N-m.cfg.Self-1; {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("netfab: rank %d accept: %w", m.cfg.Self, err)
		}
		fr, err := readFrame(conn, deadline)
		if err != nil {
			conn.Close()
			continue // stale connection from an abandoned earlier attempt
		}
		if err := m.checkHello(fr); err != nil {
			conn.Close()
			return err
		}
		if fr.Origin <= m.cfg.Self || fr.Origin >= m.cfg.N {
			conn.Close()
			return fmt.Errorf("netfab: rank %d unexpected mesh hello from rank %d", m.cfg.Self, fr.Origin)
		}
		if m.peers[fr.Origin] != nil {
			m.peers[fr.Origin].conn.Close() // newest stream wins (peer retried)
			have--
		}
		m.peers[fr.Origin] = newPeer(fr.Origin, conn)
		have++
	}

	if err := m.writeFrame(m.peers[0], &wire.Frame{Kind: wire.KindReady, Origin: m.cfg.Self}); err != nil {
		return fmt.Errorf("netfab: rank %d sending ready: %w", m.cfg.Self, err)
	}
	goFr, err := readFrame(rootConn, deadline)
	if err != nil || goFr.Kind != wire.KindGo {
		return fmt.Errorf("netfab: rank %d waiting for go: %v", m.cfg.Self, err)
	}
	return nil
}

// Gen returns the world generation adopted at bootstrap: the root's
// configured generation, learned by every peer from the Roster broadcast.
func (m *Mesh) Gen() int { return m.gen }

// Rejoined returns the ranks the root admitted via a Rejoin hello during
// bootstrap (respawned processes re-entering the job). Only the root
// observes rejoin hellos; elsewhere the slice is empty.
func (m *Mesh) Rejoined() []int { return m.rejoined }

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func (m *Mesh) checkHello(fr *wire.Frame) error {
	if fr.Kind != wire.KindHello && fr.Kind != wire.KindRejoin {
		return fmt.Errorf("netfab: expected hello, got %s", fr.Kind)
	}
	if fr.Compare != wire.Version {
		return fmt.Errorf("%w: peer rank %d speaks version %d, we speak %d",
			wire.ErrVersion, fr.Origin, fr.Compare, wire.Version)
	}
	if int(fr.Operand) != m.cfg.N {
		return fmt.Errorf("netfab: rank %d believes the job has %d ranks, we believe %d",
			fr.Origin, fr.Operand, m.cfg.N)
	}
	if len(fr.Strs) != 1 {
		return fmt.Errorf("netfab: hello from rank %d carries %d addrs", fr.Origin, len(fr.Strs))
	}
	return nil
}

func newMesh(cfg Config) *Mesh {
	return &Mesh{
		cfg:     cfg,
		peers:   make([]*peer, cfg.N),
		hb:      beat.Policy{}.WithDefaults(),
		quit:    make(chan struct{}),
		byeFrom: make(map[int]bool),
		byeCond: make(chan struct{}),
	}
}

func newPeer(rank int, conn net.Conn) *peer {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // latency-sensitive small frames (acks, immediates)
	}
	p := &peer{rank: rank, conn: conn, doorbell: make(chan struct{}, 1)}
	p.sendable.L = &p.mu
	p.nb.init(conn)
	return p
}

// dialRetry dials until success or the deadline. Bootstrap peers race the
// listeners they are dialing, so connection-refused is retried — under
// jittered exponential backoff, so a large job's worth of children doesn't
// hammer the rendezvous listener in 5ms lockstep.
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	var lastErr error
	sleep := 2 * time.Millisecond
	const sleepMax = 250 * time.Millisecond
	// Deterministic per-call jitter seed: cheap, no global rand state.
	jit := uint64(time.Now().UnixNano())
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			if lastErr == nil {
				lastErr = errors.New("deadline exceeded")
			}
			return nil, lastErr
		}
		conn, err := net.DialTimeout("tcp", addr, remain)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		// Full jitter in [sleep/2, sleep): desynchronizes the herd while
		// keeping the expected backoff exponential.
		jit = jit*6364136223846793005 + 1442695040888963407
		d := sleep/2 + time.Duration(jit%uint64(sleep/2+1))
		if until := time.Until(deadline); d > until {
			d = until
		}
		time.Sleep(d)
		if sleep < sleepMax {
			sleep *= 2
		}
	}
}

// ---------------------------------------------------------------------------
// Established-mesh operation
// ---------------------------------------------------------------------------

// Self returns this mesh's rank.
func (m *Mesh) Self() int { return m.cfg.Self }

// N returns the job size.
func (m *Mesh) N() int { return m.cfg.N }

// Start installs the receive callbacks and launches the data-plane
// goroutines: one writer per peer stream, one beat loop, and on the
// receive side a single process-wide poller multiplexing every pollable
// stream (with a fallback reader goroutine for streams the kernel cannot
// poll — see rx.go and poller_linux.go). rx runs on the rx goroutine
// driving that peer; the frame's Data slice aliases the read buffer and is
// valid until rx returns. rx may send (SendReply, never Send: a reader
// parked on a full socket stops every stream). peerDown fires at most once
// per peer, only for streams that end or fall silent without a clean Bye.
func (m *Mesh) Start(rx func(from int, fr *wire.Frame), peerDown func(rank int, err error)) {
	m.rx = rx
	m.peerDown = peerDown
	m.poller = newPoller()
	fallback := 0
	for _, p := range m.peers {
		if p == nil {
			continue
		}
		m.writersWG.Add(1)
		go m.writeLoop(p)
		if m.poller != nil && m.poller.add(p) {
			continue
		}
		fallback++
		m.readersWG.Add(1)
		go m.readLoop(newRxStream(p, &idleReader{conn: p.conn, idle: m.hb.Interval}))
	}
	if m.cfg.N > 1 {
		m.writersWG.Add(1)
		go m.beatLoop()
	}
	m.rxGoroutines = fallback
	if m.poller != nil {
		if m.poller.count() > 0 {
			m.rxGoroutines++
		}
		m.poller.launch(m)
	}
}

// RxGoroutines reports how many goroutines the receive side runs: 1 (the
// poller) when every stream is kernel-pollable, plus one per fallback
// stream. O(1) in the job size on platforms with a poller.
func (m *Mesh) RxGoroutines() int { return m.rxGoroutines }

// streamEnded classifies the end of a peer stream: after a Bye (or after
// our own Close) any termination is clean; otherwise it is a failure.
func (m *Mesh) streamEnded(p *peer, err error) {
	p.mu.Lock()
	clean := p.bye || p.closed
	p.mu.Unlock()
	if clean || m.closed.Load() {
		return
	}
	if err == io.EOF {
		err = fmt.Errorf("netfab: rank %d closed the connection without goodbye", p.rank)
	}
	m.markDown(p, err)
}

// markDown records a failed stream (idempotently): subsequent sends fail
// fast, blocked senders wake, and peerDown fires exactly once. Reached
// from the reader (stream error, heartbeat stall) and from a failed flush
// (write error); whichever detects it first reports it.
func (m *Mesh) markDown(p *peer, err error) {
	p.mu.Lock()
	already := p.down
	p.down = true
	p.sendable.Broadcast()
	p.mu.Unlock()
	if already {
		return
	}
	if m.peerDown != nil {
		m.peerDown(p.rank, err)
	}
}

func (m *Mesh) noteBye(p *peer) {
	p.mu.Lock()
	p.bye = true
	p.mu.Unlock()
	m.byeMu.Lock()
	if !m.byeFrom[p.rank] {
		m.byeFrom[p.rank] = true
		close(m.byeCond)
		m.byeCond = make(chan struct{})
	}
	m.byeMu.Unlock()
}

// Send encodes fr and submits it on the stream to target. It is safe for
// concurrent use; fr and its slices are not retained after Send returns.
// Writes to a peer that already said goodbye succeed silently (the peer is
// legitimately gone; in-flight traffic to it is moot).
//
// With the conn free the frame is written synchronously after whatever is
// queued (held replies ride along in the same writev); otherwise it is
// queued for the flush in progress, and a sender finding txMaxPending
// bytes queued blocks. A write error on a queued frame surfaces through
// peerDown rather than this return value.
func (m *Mesh) Send(target int, fr *wire.Frame) error {
	p, err := m.peerFor(target)
	if err != nil {
		return err
	}
	return m.writeFrame(p, fr)
}

// SendReply is Send for a frame produced by delivery on the rx goroutine,
// which must never park: if it blocked on a full socket it would stop
// reading every stream, and a peer doing the same would wedge the job.
// A reply to the stream the rx goroutine is delivering from waits for its
// next read (see pump); any other is written at once, without parking
// (flushNowLocked). Replies are exempt from txMaxPending. The queue they
// build is bounded by what the peer has outstanding against this rank
// (ReplyQueuedHighWater reports how far past the bound it went).
func (m *Mesh) SendReply(target int, fr *wire.Frame) error {
	p, err := m.peerFor(target)
	if err != nil {
		return err
	}
	p.mu.Lock()
	if refused, err := p.refuseLocked(fr); refused {
		p.mu.Unlock()
		return err
	}
	p.sent = true
	p.appendPendingLocked(fr)
	if p.pendingBytes > txMaxPending {
		m.noteReplyQueued(uint64(p.pendingBytes - txMaxPending))
	}
	m.flushNowLocked(p)
	return nil
}

func (m *Mesh) peerFor(target int) (*peer, error) {
	if m.closed.Load() {
		return nil, ErrMeshClosed
	}
	if target < 0 || target >= m.cfg.N || target == m.cfg.Self {
		return nil, fmt.Errorf("netfab: send to bad rank %d", target)
	}
	p := m.peers[target]
	if p == nil {
		return nil, fmt.Errorf("netfab: no stream to rank %d", target)
	}
	return p, nil
}

// refuseLocked reports whether p's stream takes no frame now, and the
// error to return: data to a peer that said goodbye is moot and silently
// dropped — but our own goodbye must still go out, or a rank that received
// the peer's Bye first would suppress its reply and leave the peer waiting
// out its shutdown grace period. Caller holds p.mu.
func (p *peer) refuseLocked(fr *wire.Frame) (bool, error) {
	switch {
	case p.closed:
		return true, ErrMeshClosed
	case p.down:
		return true, fmt.Errorf("netfab: stream to rank %d is down", p.rank)
	case p.bye && fr.Kind != wire.KindBye:
		return true, nil
	}
	return false, nil
}

// writeFrame is Send on p's stream.
func (m *Mesh) writeFrame(p *peer, fr *wire.Frame) error {
	p.mu.Lock()
	for p.flushing && p.pendingBytes >= txMaxPending && !p.closed && !p.down {
		p.sendable.Wait() // backpressure: the conn is this far behind
	}
	if refused, err := p.refuseLocked(fr); refused {
		p.mu.Unlock()
		return err
	}
	p.sent = true
	if p.flushing {
		p.appendPendingLocked(fr)
		p.mu.Unlock()
		return nil
	}
	p.encBuf = wire.AppendFrame(p.encBuf[:0], fr)
	err := m.flushLocked(p, p.encBuf, true)
	m.flushNowLocked(p) // what was queued behind the write
	if err != nil {
		return fmt.Errorf("netfab: write to rank %d: %w", p.rank, err)
	}
	return nil
}

// flushNowLocked writes p's queue without parking: one nonblocking writev,
// with what the socket does not take handed to the writer goroutine. It
// leaves the queue to the rx goroutine while that holds it for its next
// read, and to a flush already holding the conn. Caller holds p.mu;
// flushNowLocked releases it.
func (m *Mesh) flushNowLocked(p *peer) {
	if !p.holding && p.flushableLocked() {
		m.flushLocked(p, nil, false) // a failure marks the stream down
	}
	ring := !p.holding && p.flushableLocked()
	p.mu.Unlock()
	if ring {
		ringDoorbell(p)
	}
}

// flushableLocked reports whether frames wait on a live stream that no
// flush holds. Caller holds p.mu.
func (p *peer) flushableLocked() bool {
	return !p.flushing && p.pendingBytes > 0 && !p.closed && !p.down
}

// flushLocked claims the free conn and writes p's queue, then tail if
// any, as one batch: blocking under the write deadline, or one nonblocking
// writev (tail nil) that leaves queued what the socket does not take. A
// failed write marks the stream down. Caller holds p.mu, released across
// the write.
func (m *Mesh) flushLocked(p *peer, tail []byte, block bool) error {
	p.flushing = true
	p.bufs = p.bufs[:0]
	for _, c := range p.chunks {
		p.bufs = append(p.bufs, c.buf[c.off:])
	}
	if tail != nil {
		p.bufs = append(p.bufs, tail)
	}
	queued := p.pendingBytes
	p.mu.Unlock()

	var n int64
	var err error
	if block {
		p.conn.SetWriteDeadline(time.Now().Add(m.cfg.WriteTimeout))
		p.wbufs = p.bufs
		n, err = p.wbufs.WriteTo(p.conn)
	} else {
		n, err = p.nb.writev(p.bufs)
	}

	p.mu.Lock()
	p.flushing = false
	p.sendable.Broadcast()
	if err != nil {
		// The conn is finished: drop what it did not take. The failure is
		// benign after our own close or the peer's goodbye.
		p.retireLocked(queued)
		if !p.closed && !p.bye && !m.closed.Load() {
			p.mu.Unlock()
			m.markDown(p, fmt.Errorf("netfab: write to rank %d: %w", p.rank, err))
			p.mu.Lock()
		}
		return err
	}
	frames := p.retireLocked(min(int(n), queued))
	if tail != nil && int(n) == queued+len(tail) {
		frames++
	}
	if n > 0 {
		m.bytesSent.Add(uint64(n))
		m.framesSent.Add(uint64(frames))
		m.txFlushes.Add(1)
		m.txCoalesce[coalesceBucket(frames)].Add(1)
	}
	return err
}

// retireLocked drops n written bytes from the front of the queue,
// recycling the chunks they finished, and returns how many frames those
// chunks held. Caller holds p.mu.
func (p *peer) retireLocked(n int) (frames int) {
	p.pendingBytes -= n
	done := 0
	for n > 0 {
		c := p.chunks[done]
		rest := len(c.buf) - c.off
		if n < rest {
			c.off += n // a partial write, or the chunk grew during it
			break
		}
		n -= rest
		frames += c.frames
		p.recycleChunkLocked(c)
		done++
	}
	p.chunks = slices.Delete(p.chunks, 0, done)
	return frames
}

// noteReplyQueued raises the reply high-water mark to over, if higher.
func (m *Mesh) noteReplyQueued(over uint64) {
	for {
		hw := m.replyHighWater.Load()
		if over <= hw || m.replyHighWater.CompareAndSwap(hw, over) {
			return
		}
	}
}

// appendPendingLocked encodes fr onto the peer's pending chunk list.
// Caller holds p.mu.
func (p *peer) appendPendingLocked(fr *wire.Frame) {
	var c *txChunk
	if n := len(p.chunks); n > 0 && len(p.chunks[n-1].buf) < txChunkSize {
		c = p.chunks[n-1]
	} else {
		c = p.newChunkLocked()
		p.chunks = append(p.chunks, c)
	}
	before := len(c.buf)
	c.buf = wire.AppendFrame(c.buf, fr)
	c.frames++
	p.pendingBytes += len(c.buf) - before
}

// newChunkLocked takes an empty chunk from the freelist or allocates one.
// Caller holds p.mu.
func (p *peer) newChunkLocked() *txChunk {
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		return c
	}
	return &txChunk{buf: make([]byte, 0, txChunkSize)}
}

// recycleChunkLocked returns a flushed chunk to the freelist (jumbo ones
// go to the GC). Caller holds p.mu.
func (p *peer) recycleChunkLocked(c *txChunk) {
	if cap(c.buf) > txChunkRecycleCap || len(p.free) >= 8 {
		return
	}
	c.buf = c.buf[:0]
	c.off, c.frames = 0, 0
	p.free = append(p.free, c)
}

// ringDoorbell wakes p's writer goroutine (non-blocking: one pending ring
// is enough).
func ringDoorbell(p *peer) {
	select {
	case p.doorbell <- struct{}{}:
	default:
	}
}

// writeLoop is p's writer goroutine: woken by the doorbell, it writes the
// entire queue as one blocking batch — many frames, one writev syscall —
// until it is empty, a write fails, or another flush owns the conn (which
// hands on what it leaves).
func (m *Mesh) writeLoop(p *peer) {
	defer m.writersWG.Done()
	for {
		select {
		case <-p.doorbell:
		case <-m.quit:
			return
		}
		p.mu.Lock()
		for p.flushableLocked() {
			if m.flushLocked(p, nil, true) != nil {
				break
			}
		}
		p.mu.Unlock()
	}
}

// SuppressHeartbeat stops this rank's Beat frames, so a mesh that also
// sends nothing else looks to its peers exactly like a frozen process: an
// open stream gone silent. Peer monitoring continues. Tests use it to play
// the hung rank (shmfab.Mesh has the same method for the same purpose).
func (m *Mesh) SuppressHeartbeat() { m.suppress.Store(true) }

// beatLoop keeps every outbound stream audibly alive: once per interval, a
// stream nothing was submitted on since the last look gets one empty Beat
// frame, so the peer's detector never mistakes an idle job for a hung one.
// The frame goes through the queue to the peer's writer goroutine — this
// loop never blocks on a socket, so one stuck peer cannot silence the
// beats to the others. While traffic flows no Beat is sent at all. Replies
// held that long (delivery stuck) go to the writer as the beat instead.
func (m *Mesh) beatLoop() {
	defer m.writersWG.Done()
	t := time.NewTicker(m.hb.Interval)
	defer t.Stop()
	fr := &wire.Frame{Kind: wire.KindBeat, Origin: m.cfg.Self}
	for {
		select {
		case <-m.quit:
			return
		case <-t.C:
		}
		if m.suppress.Load() {
			continue
		}
		for _, p := range m.peers {
			if p == nil {
				continue
			}
			p.mu.Lock()
			quiet := !p.sent && !p.flushing && !p.bye && !p.closed && !p.down
			p.sent = false
			if quiet && p.pendingBytes == 0 {
				p.appendPendingLocked(fr)
			}
			p.mu.Unlock()
			if quiet {
				ringDoorbell(p)
			}
		}
	}
}

// drainSends waits (bounded) until p's queue is flushed, so a graceful
// close never cuts off frames already accepted by Send.
func (p *peer) drainSends(deadline time.Time) {
	stop := time.AfterFunc(time.Until(deadline), func() {
		p.mu.Lock()
		p.sendable.Broadcast()
		p.mu.Unlock()
	})
	defer stop.Stop()
	p.mu.Lock()
	for (p.pendingBytes > 0 || p.flushing) && !p.down && !p.closed && time.Now().Before(deadline) {
		p.sendable.Wait()
	}
	p.mu.Unlock()
}

// Close tears the mesh down. With graceful=true it sends Bye on every
// stream and waits (bounded) for every peer's Bye, so both sides agree the
// shutdown is intentional; with graceful=false it just closes the sockets,
// which peers that are still healthy will report as a failure — exactly
// right when this rank is dying.
func (m *Mesh) Close(graceful bool) error {
	var err error
	m.closeOnce.Do(func() {
		if graceful {
			bye := &wire.Frame{Kind: wire.KindBye, Origin: m.cfg.Self}
			for _, p := range m.peers {
				if p != nil {
					m.writeFrame(p, bye) // best effort; ordered after queued data
				}
			}
			deadline := time.Now().Add(2 * time.Second)
			for _, p := range m.peers {
				if p != nil {
					p.drainSends(deadline)
				}
			}
			m.waitByes(5 * time.Second)
		}
		m.closed.Store(true)
		m.quitOnce.Do(func() { close(m.quit) })
		// The poller must be fully stopped before any conn is closed: a
		// closed fd number can be reused while still in the epoll set.
		if m.poller != nil {
			m.poller.stop(m)
		}
		for _, p := range m.peers {
			if p == nil {
				continue
			}
			p.mu.Lock()
			p.closed = true
			p.sendable.Broadcast()
			p.mu.Unlock()
			p.conn.Close()
		}
		m.writersWG.Wait()
		m.readersWG.Wait()
	})
	return err
}

// abruptClose drops every stream without the goodbye handshake: on a
// failed rendezvous (no data-plane goroutines exist yet) and in tests
// simulating a crashing rank. The poller, if running, stops before the
// conns close (fd reuse hazard); fallback readers notice the close and
// exit through streamEnded; writers are released through quit — an
// abruptly closed mesh leaks no goroutines even though Close never runs.
func (m *Mesh) abruptClose() {
	m.closed.Store(true)
	if m.poller != nil {
		m.poller.stop(m)
	}
	m.quitOnce.Do(func() { close(m.quit) })
	for _, p := range m.peers {
		if p != nil {
			p.conn.Close()
		}
	}
	m.writersWG.Wait()
	m.readersWG.Wait()
}

// waitByes blocks until every live peer has said goodbye, or the timeout.
// Peers that already failed (peerDown fired) are not waited for.
func (m *Mesh) waitByes(timeout time.Duration) {
	deadline := time.After(timeout)
	for {
		m.byeMu.Lock()
		got := len(m.byeFrom)
		ch := m.byeCond
		m.byeMu.Unlock()
		want := 0
		for r, p := range m.peers {
			if p == nil || r == m.cfg.Self {
				continue
			}
			want++
		}
		if got >= want {
			return
		}
		select {
		case <-ch:
		case <-deadline:
			return
		}
	}
}

// ReadStats returns a snapshot of the mesh traffic counters.
func (m *Mesh) ReadStats() Stats {
	st := Stats{
		FramesSent: m.framesSent.Load(),
		FramesRecv: m.framesRecv.Load(),
		BytesSent:  m.bytesSent.Load(),
		BytesRecv:  m.bytesRecv.Load(),
		TxFlushes:  m.txFlushes.Load(),
		RxReads:    m.rxReads.Load(),

		ReplyQueuedHighWater: m.replyHighWater.Load(),
	}
	for i := range m.rxCoalesce {
		st.TxCoalesce[i] = m.txCoalesce[i].Load()
		st.RxCoalesce[i] = m.rxCoalesce[i].Load()
	}
	return st
}
