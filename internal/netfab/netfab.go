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
// Every stream is a socket in one epoll set, built at bootstrap, and a
// started mesh runs two goroutines whatever the job size: the poller,
// which reads every stream and writes what Send queued (poller_linux.go),
// and the beat loop. A rank blocked in a wait runs the poller's rounds
// itself (Progress). No goroutine blocks on a socket: a queue the socket
// refuses waits for the round that finds it writable again (EPOLLOUT).
// Meshes need Linux; elsewhere Bootstrap returns an error.
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
	"math"
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

	// WriteTimeout bounds each blocking frame write on an established
	// stream, and how long the socket may refuse a queue without taking a
	// byte (default 10s). A peer that stops draining its socket for this
	// long is treated as failed.
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
	// WaiterFrames counts the frames read by ranks driving the streams
	// (Progress) rather than by the poller.
	WaiterFrames uint64
	// PlacedFrames counts the bulk puts whose payload was read straight
	// into the target window (PlaceFunc) instead of through the framer;
	// each is also one of RxReads and FramesRecv.
	PlacedFrames uint64
}

// PlaceFunc is the placement callback a mesh's reader offers a bulk put
// to (Serve): fr is the frame's head, decoded, with fr.Data the part of
// its payload already buffered, and size the payload's full length; the
// rest of the payload and the frame's end are still in the socket, all
// of it. A callback that takes the frame copies fr.Data to its
// destination, calls rest once with the destination's remaining
// size-len(fr.Data) bytes, which reads them from the socket and consumes
// the frame, delivers the frame, and reports true with rest's error.
// One that reports false has not called rest: the frame then arrives
// through rx once it is buffered, like any other.
type PlaceFunc = func(fr *wire.Frame, size int, rest func(dst []byte) error) (bool, error)

// txChunk is one pending flush segment: encoded frames appended back to
// back, written as one element of a net.Buffers batch.
type txChunk struct {
	buf    []byte
	off    int // leading bytes of buf already written (only the queue's first chunk)
	frames int
	solo   bool // holds one frame of txChunkSize or more data, sized to it (soloChunkLocked)
}

const (
	// txChunkSize is the target encoded size of one pending chunk; a
	// frame larger than this gets a chunk to itself.
	txChunkSize = 64 << 10
	// txMaxPending bounds the queued-but-unflushed bytes per peer:
	// rank-context senders beyond it block until the conn's flush drains
	// it (backpressure). Replies never block and may exceed it.
	txMaxPending = 4 << 20
	// txChunkRecycleCap: chunks that grew beyond this are handed to the
	// GC instead of the freelist, so one jumbo frame doesn't pin memory.
	// A frame queued with txChunkSize or more data gets a chunk of its
	// own instead, of which a peer keeps one, up to txMaxPending.
	txChunkRecycleCap = 256 << 10
	// rxBufSize is the framer's initial read-buffer size per stream.
	rxBufSize = 256 << 10
)

// peer is one established stream to another rank.
//
// Frames queue as encoded chunks, and whoever claims the conn (flushing)
// writes the whole queue as one batch. On a stream the poller reads, a
// Send only queues its frame: the queue leaves with the next flush of the
// stream, which comes before the poller's next read of it (see pump), at
// the start of a driving rank's next round (Progress), on the poller's
// next empty round (pollLoop), or with the Send that would grow it past
// txChunkSize. Replies to what one read brought in are held the same way:
// the poller writes them before its next read, and a driving rank leaves
// them for its next round, so they ride the Send its returning wait
// makes. While the poller sleeps, while a read's frames are delivered
// from the stream (the frame then carries the held replies), a Send writes
// the queue with its own frame at the end, blocking. A flush that must not
// park writes until the queue is empty or the socket refuses bytes
// (writeQueueLocked); a refusal arms EPOLLOUT, and the poll round that
// finds the socket writable writes the rest.
type peer struct {
	rank int
	conn net.Conn
	fd   int      // conn's socket, as registered in the epoll set
	nb   nbWriter // nonblocking writes on fd (flushes that must not park)

	// Only the goroutine that set flushing touches these. wbufs is the copy
	// of the batch WriteTo consumes: a field, so writing allocates nothing.
	// encBuf holds the encoding of a frame a Send writes at once; for a
	// bulk frame only its head, which a gather write sends with the
	// caller's data and trailer (zero: no strings) after it.
	bufs, wbufs net.Buffers
	encBuf      []byte
	tail        [3][]byte
	trailer     [wire.TrailerLen]byte

	mu           sync.Mutex // guards all fields below
	sendable     sync.Cond  // signaled when a flush completes or state changes
	chunks       []*txChunk // pending encoded frames, in send order
	free         []*txChunk // chunk recycle list
	solo         *txChunk   // the kept solo chunk, for the next big reply
	pendingBytes int        // unwritten bytes in chunks
	flushing     bool       // a goroutine is writing a batch on the conn
	holding      bool       // a read's frames are being delivered from this stream: replies wait for the next flush
	sent         bool       // a frame was submitted since the beat loop last looked
	closed       bool       // local close: writes are errors
	bye          bool       // remote sent Bye: writes are silently dropped
	down         bool       // stream failed: writes are errors, peerDown fired
	outArmed     bool       // EPOLLOUT is armed on fd: the socket refused the queue
	refusedAt    time.Time  // while outArmed: the socket's first refusal since it last took bytes
}

// Mesh is one rank's set of streams to every other rank in the job.
type Mesh struct {
	cfg   Config
	peers []*peer // index by rank; nil at Self

	rx       func(from int, fr *wire.Frame)
	place    PlaceFunc
	readEnd  func(from int)
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
	waiterFrames           atomic.Uint64
	placedFrames           atomic.Uint64

	// The tx handshake between Send and the poller. A Send that queues
	// stores txQueued, then loads pollParked: set, the
	// poller sleeps and the Send writes the queue itself. A driving rank
	// that leaves its replies queued does the same. The poller stores
	// pollParked before it flushes every queued stream and sleeps, so one
	// side or the other always sees the frame.
	txQueued, pollParked atomic.Bool

	// poller is the epoll set every stream is registered in at bootstrap,
	// read by one goroutine (see poller_linux.go).
	poller *poller

	// rxMu makes its holder the reader of every stream: the
	// poller's rounds and a driving rank's (Progress) take it with
	// TryLock, so one round runs at a time. The streams' rx state, the
	// poller's stream map and lastCheck, the last liveness check, belong
	// to its holder; the epoll set closes under it.
	rxMu      sync.Mutex
	lastCheck time.Time

	// drivers counts ranks between BeginDrive and EndDrive; aside is set
	// while the poller steps aside for them, and resume wakes it.
	drivers atomic.Int32
	aside   atomic.Bool
	resume  chan struct{}

	// gen is the world generation adopted at bootstrap (the root's
	// cfg.Gen, learned from the Roster by everyone else); rejoined lists
	// the ranks the root admitted via a Rejoin hello this bootstrap.
	gen      int
	rejoined []int

	closeOnce sync.Once
	closed    atomic.Bool
	quit      chan struct{}  // closed at teardown: the beat loop exits, a step-aside ends
	loops     sync.WaitGroup // the poll loop and the beat loop

	byeMu   sync.Mutex
	byeFrom map[int]bool
	byeCond chan struct{} // closed and re-made as Byes arrive
}

// ErrMeshClosed is returned by Send after the mesh has been closed.
var ErrMeshClosed = errors.New("netfab: mesh closed")

// Bootstrap performs the rendezvous and returns a connected Mesh, every
// stream registered in its epoll set. It blocks until every pair of ranks
// has an established stream and the root has released the job. The
// returned mesh is quiescent: nothing reads its streams until Start is
// called, so the caller can install callbacks before the first frame can
// arrive.
func Bootstrap(cfg Config) (*Mesh, error) {
	cfg = cfg.withDefaults()
	if cfg.N <= 0 || cfg.Self < 0 || cfg.Self >= cfg.N {
		return nil, fmt.Errorf("netfab: bad rank %d of %d", cfg.Self, cfg.N)
	}
	m, err := newMesh(cfg)
	if err != nil || cfg.N == 1 {
		return m, err
	}
	if cfg.Self == 0 {
		err = m.bootstrapRoot()
	} else {
		err = m.bootstrapPeer()
	}
	if err == nil {
		err = m.register()
	}
	if err != nil {
		m.abruptClose()
		return nil, err
	}
	return m, nil
}

// register puts every stream in the mesh's epoll set.
func (m *Mesh) register() error {
	for _, p := range m.peers {
		if p == nil {
			continue
		}
		if err := m.poller.add(p); err != nil {
			return err
		}
	}
	return nil
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
		// The peer advertises only its listener port; the host that
		// actually reached us is authoritative.
		host, _, err := net.SplitHostPort(conn.RemoteAddr().String())
		if err != nil {
			host = "127.0.0.1"
		}
		_, port, _ := net.SplitHostPort(fr.Strs[0]) // checkHello parsed it
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
		if err == nil {
			err = checkRendezvous(fr, wire.KindReady, 0, m.cfg.N)
		}
		if err != nil {
			return fmt.Errorf("netfab: waiting for ready from rank %d: %w", r, err)
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
	if err == nil {
		err = checkRendezvous(roster, wire.KindRoster, m.cfg.Self, m.cfg.N)
	}
	if err != nil {
		return fmt.Errorf("netfab: rank %d waiting for roster: %w", m.cfg.Self, err)
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
	if err == nil {
		err = checkRendezvous(goFr, wire.KindGo, m.cfg.Self, m.cfg.N)
	}
	if err != nil {
		return fmt.Errorf("netfab: rank %d waiting for go: %w", m.cfg.Self, err)
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

// checkHello validates a hello this rank accepted a connection with.
func (m *Mesh) checkHello(fr *wire.Frame) error {
	return checkRendezvous(fr, wire.KindHello, m.cfg.Self, m.cfg.N)
}

// checkRendezvous validates a frame that rank self of an n-rank job read
// during bootstrap, where it expects one of kind want (a hello may be its
// rejoin variant). Hellos and readys come from a rank above self (at the
// root, any other rank; at a peer, a rank that dials down), rosters and go
// from the root. A hello speaks this protocol version, agrees on n and
// advertises one host:port; a roster lists n addresses and a generation an
// int holds. Once it returns nil, whatever bootstrap indexes by the frame's
// fields is in range.
func checkRendezvous(fr *wire.Frame, want wire.Kind, self, n int) error {
	kind := fr.Kind
	if want == wire.KindHello && kind == wire.KindRejoin {
		kind = wire.KindHello
	}
	if kind != want {
		return fmt.Errorf("netfab: expected %s, got %s", want, fr.Kind)
	}
	lo, hi := 0, 1 // the root's frames
	if want == wire.KindHello || want == wire.KindReady {
		lo, hi = self+1, n
	}
	if fr.Origin < lo || fr.Origin >= hi {
		return fmt.Errorf("netfab: rank %d of %d got a %s from rank %d", self, n, fr.Kind, fr.Origin)
	}
	switch want {
	case wire.KindHello:
		if fr.Compare != wire.Version {
			return fmt.Errorf("%w: peer rank %d speaks version %d, we speak %d",
				wire.ErrVersion, fr.Origin, fr.Compare, wire.Version)
		}
		if fr.Operand != uint64(n) {
			return fmt.Errorf("netfab: rank %d believes the job has %d ranks, we believe %d",
				fr.Origin, fr.Operand, n)
		}
		if len(fr.Strs) != 1 {
			return fmt.Errorf("netfab: hello from rank %d carries %d addrs", fr.Origin, len(fr.Strs))
		}
		if _, _, err := net.SplitHostPort(fr.Strs[0]); err != nil {
			return fmt.Errorf("netfab: rank %d advertised bad addr %q: %w", fr.Origin, fr.Strs[0], err)
		}
	case wire.KindRoster:
		if len(fr.Strs) != n {
			return fmt.Errorf("netfab: roster lists %d addrs for %d ranks", len(fr.Strs), n)
		}
		if fr.Operand > math.MaxInt32 {
			return fmt.Errorf("netfab: roster generation %d out of range", fr.Operand)
		}
	}
	return nil
}

// newMesh returns a mesh with no streams yet and its epoll set built.
func newMesh(cfg Config) (*Mesh, error) {
	pl, err := newPoller()
	if err != nil {
		return nil, err
	}
	return &Mesh{
		cfg:     cfg,
		peers:   make([]*peer, cfg.N),
		hb:      beat.Policy{}.WithDefaults(),
		poller:  pl,
		quit:    make(chan struct{}),
		resume:  make(chan struct{}, 1),
		byeFrom: make(map[int]bool),
		byeCond: make(chan struct{}),
	}, nil
}

func newPeer(rank int, conn net.Conn) *peer {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // latency-sensitive small frames (acks, immediates)
	}
	p := &peer{rank: rank, conn: conn}
	p.sendable.L = &p.mu
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

// Start installs the receive callbacks and launches the mesh's two
// goroutines, whatever the job size: the poller, which reads every stream
// and writes what Send queued (poller_linux.go), and the beat loop. rx
// runs on whichever goroutine reads that peer's stream — the poller or a
// rank driving the streams (Progress) — one at a time; the frame's Data
// slice aliases the read buffer and is valid until rx returns. rx may send (SendReply, never Send: a reader parked on a full
// socket stops every stream). peerDown fires at most once per peer, only
// for streams that end or fall silent without a clean Bye. Start offers
// no frame for placement and calls nothing at the end of a read: it is
// Serve with place and readEnd nil.
func (m *Mesh) Start(rx func(from int, fr *wire.Frame), peerDown func(rank int, err error)) {
	m.Serve(rx, nil, nil, peerDown)
}

// Serve is Start with two more callbacks. A reader that finds the head of
// a put with txChunkSize or more data in a stream, the rest of the frame
// all in the socket, offers it to place (see rx.go, "Placed reads"). readEnd(from) runs once the frames a read of from's stream
// brought in are delivered, before the replies they made leave, so what
// it sends (SendReply) leaves in the same write (see pump). Both run on
// the goroutine and under the rules rx runs by.
func (m *Mesh) Serve(rx func(from int, fr *wire.Frame), place PlaceFunc, readEnd func(from int), peerDown func(rank int, err error)) {
	m.rx = rx
	m.place = place
	m.readEnd = readEnd
	m.peerDown = peerDown
	m.lastCheck = time.Now()
	m.poller.launch(m)
	if m.cfg.N > 1 {
		m.loops.Add(1)
		go m.beatLoop()
	}
}

// Progress runs one poll round on the calling goroutine — a rank blocked
// in a wait, or polling (exec.RealEnv.SetProgress) — and reports whether
// it read any frame: it writes what Send queued, takes the ready streams
// in one epoll_wait that does not block, and reads and delivers each, so
// the event the rank waits for commits on its own goroutine. Replies to
// what it read stay queued for its next round, which writes them with
// the Send its returning wait makes. It never blocks: while the poller or
// another rank runs a round, and once the mesh is closed, it returns
// false. Call it on a started mesh.
func (m *Mesh) Progress() bool {
	_, frames, _ := m.round(m.poller, time.Now(), true, true)
	if frames == 0 {
		return false
	}
	m.waiterFrames.Add(frames)
	return true
}

// BeginDrive hands the streams to a rank about to drive them
// (exec.Progressor): a spinning poller steps aside once its own rounds
// have been empty for asideSpin.
func (m *Mesh) BeginDrive() { m.drivers.Add(1) }

// EndDrive takes the streams back from a driver. If the last driver out
// gave up, its rank parks until a delivery wakes it, so a poller that
// stepped aside resumes now; if it found its event, the poller stays
// aside until its nap ends or a later driver gives up. The driver count
// changes before aside is read, and the poller stores aside before it
// re-reads the count.
func (m *Mesh) EndDrive(found bool) {
	if m.drivers.Add(-1) == 0 && !found && m.aside.Load() {
		m.resumePoller()
	}
}

// resumePoller wakes a poller that stepped aside; a token left while it
// was not waiting only makes its next step-aside return at once.
func (m *Mesh) resumePoller() {
	select {
	case m.resume <- struct{}{}:
	default:
	}
}

// driven reports whether a rank drives the streams, so the poller should
// step aside. Once the mesh is closing nobody counts: the poller must see
// the peers' goodbyes.
func (m *Mesh) driven() bool { return m.drivers.Load() > 0 && !m.closed.Load() }

// RxGoroutines reports how many goroutines the receive side runs: 1, the
// poller, whatever the job size.
func (m *Mesh) RxGoroutines() int { return 1 }

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
// from the reader (stream error, heartbeat stall, write stall) and from a
// failed flush (write error); whichever detects it first reports it.
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
// Send may return before the frame is written, with no syscall: the
// frame joins the queue, which leaves in one writev with the next flush
// of the stream (see peer): a driving rank's next round, or the poller's
// next empty round at the latest. Frames still leave in Send order. A
// Send that would grow the queue past txChunkSize (so one carrying that
// many bytes), and one made while the poller sleeps or while a read's
// frames are delivered from the stream, write the queue with their own
// frame at the end, blocking. With the conn taken by a flush a
// small frame joins the queue behind it; a frame of txChunkSize or more,
// and any sender finding txMaxPending bytes queued, waits for the conn
// instead. A write error on a queued frame surfaces through peerDown
// rather than this return value.
func (m *Mesh) Send(target int, fr *wire.Frame) error {
	p, err := m.peerFor(target)
	if err != nil {
		return err
	}
	return m.send(p, fr, true)
}

// SendReply is Send for a frame produced by delivery, which must never
// park: if it blocked on a full socket it would stop reading every
// stream, and a peer doing the same would wedge the job. A reply to the
// stream being delivered from waits for the end of the read (see pump);
// any other is written at once, without parking (flushNowLocked).
// Replies are exempt from txMaxPending. The queue they build is bounded
// by what the peer has outstanding against this rank
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

// writeFrame writes fr on p's stream before it returns, after whatever is
// queued: the rendezvous frames and Bye, which no poll round flushes.
func (m *Mesh) writeFrame(p *peer, fr *wire.Frame) error {
	return m.send(p, fr, false)
}

// send submits fr on p's stream: queued for the poller when mayQueue
// allows (see Send), written at once otherwise.
func (m *Mesh) send(p *peer, fr *wire.Frame, mayQueue bool) error {
	p.mu.Lock()
	// Backpressure: the conn is this far behind. A big frame waits for
	// the conn too rather than being copied into the queue, where its
	// chunk would outgrow txChunkRecycleCap and go to the GC.
	for p.flushing && (p.pendingBytes >= txMaxPending || len(fr.Data) >= txChunkSize) && !p.closed && !p.down {
		p.sendable.Wait()
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
	var tail [][]byte
	if mayQueue && !p.holding && p.pendingBytes+len(fr.Data) < txChunkSize {
		p.appendPendingLocked(fr)
		m.txQueued.Store(true) // before loading pollParked: see Mesh.txQueued
		if !m.pollParked.Load() {
			p.mu.Unlock()
			return nil
		}
	} else if len(fr.Data) >= txChunkSize && len(fr.Strs) == 0 {
		// A gather write: the data leaves from the caller's buffer, which
		// the blocking write below is done with before Send returns.
		p.encBuf = wire.AppendHead(p.encBuf[:0], fr)
		p.tail = [3][]byte{p.encBuf, fr.Data, p.trailer[:]}
		tail = p.tail[:]
	} else {
		p.encBuf = wire.AppendFrame(p.encBuf[:0], fr)
		p.tail[0] = p.encBuf
		tail = p.tail[:1]
	}
	_, err := m.flushLocked(p, tail, true)
	p.tail = [3][]byte{} // keep no caller buffer reachable
	m.flushNowLocked(p)  // what was queued behind the write
	if err != nil {
		return fmt.Errorf("netfab: write to rank %d: %w", p.rank, err)
	}
	return nil
}

// flushNowLocked writes p's queue without parking (writeQueueLocked),
// unless the stream's reader holds it (a read's frames are being
// delivered). Caller holds p.mu; flushNowLocked releases it.
func (m *Mesh) flushNowLocked(p *peer) {
	if !p.holding {
		m.writeQueueLocked(p)
	}
	p.mu.Unlock()
}

// writeQueueLocked writes p's queue in nonblocking writevs until it is
// empty or the socket refuses bytes, and leaves it to a flush already
// holding the conn, which does the same once its write is done. EPOLLOUT
// is armed on the stream while, and only while, the socket has refused
// the queue: the poll round that finds the socket writable calls this
// again, and so disarms it once the queue is empty. A socket that takes
// no byte for WriteTimeout convicts the peer (checkStalls). Caller holds
// p.mu.
func (m *Mesh) writeQueueLocked(p *peer) {
	refused, moved := false, false
	for p.flushableLocked() {
		n, err := m.flushLocked(p, nil, false)
		if err != nil {
			break // the stream is down or closed
		}
		if n == 0 {
			refused = true
			break
		}
		moved = true
	}
	if p.closed {
		return // the epoll set may be gone
	}
	if refused && (moved || !p.outArmed) {
		p.refusedAt = time.Now()
	}
	if refused != p.outArmed {
		p.outArmed = refused
		m.poller.watchOut(p, refused)
	}
}

// deferLocked leaves the replies a driving rank's read made queued for
// its next round, which writes them with the Send its returning wait
// makes (pp8's ack and reverse put leave in one writev). It is Send's
// handshake: txQueued is stored before pollParked is loaded, so a poller
// that has gone to sleep is seen and the queue written now, and a poller
// still awake flushes it on its next empty round. Caller holds p.mu;
// deferLocked releases it.
func (m *Mesh) deferLocked(p *peer) {
	if p.pendingBytes > 0 {
		m.txQueued.Store(true) // before loading pollParked: see Mesh.txQueued
		if m.pollParked.Load() {
			m.flushNowLocked(p)
			return
		}
	}
	p.mu.Unlock()
}

// flushableLocked reports whether frames wait on a live stream that no
// flush holds. Caller holds p.mu.
func (p *peer) flushableLocked() bool {
	return !p.flushing && p.pendingBytes > 0 && !p.closed && !p.down
}

// flushLocked claims the free conn and writes p's queue, then tail if
// any (the buffers of one frame), as one batch: blocking under the write
// deadline, or one nonblocking writev (tail nil) that leaves queued what
// the socket does not take. It reports the bytes written. A failed write
// marks the stream down. Caller holds p.mu, released across the write.
func (m *Mesh) flushLocked(p *peer, tail [][]byte, block bool) (int64, error) {
	p.flushing = true
	p.bufs = p.bufs[:0]
	for _, c := range p.chunks {
		p.bufs = append(p.bufs, c.buf[c.off:])
	}
	tailLen := 0
	for _, b := range tail {
		p.bufs = append(p.bufs, b)
		tailLen += len(b)
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
		return n, err
	}
	frames := p.retireLocked(min(int(n), queued))
	if tail != nil && int(n) == queued+tailLen {
		frames++
	}
	if n > 0 {
		m.bytesSent.Add(uint64(n))
		m.framesSent.Add(uint64(frames))
		m.txFlushes.Add(1)
		m.txCoalesce[coalesceBucket(frames)].Add(1)
	}
	return n, nil
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

// appendPendingLocked encodes fr onto the peer's pending chunk list: a
// frame with txChunkSize or more data (a big get reply) into a solo chunk,
// any other at the end of the last chunk while that is short of
// txChunkSize. Caller holds p.mu.
func (p *peer) appendPendingLocked(fr *wire.Frame) {
	var c *txChunk
	switch n := len(p.chunks); {
	case len(fr.Data) >= txChunkSize:
		c = p.soloChunkLocked(wire.HeadLen + len(fr.Data) + wire.TrailerLen)
		p.chunks = append(p.chunks, c)
	case n > 0 && len(p.chunks[n-1].buf) < txChunkSize:
		c = p.chunks[n-1]
	default:
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

// soloChunkLocked returns an empty solo chunk of at least size bytes: the
// kept one if it is big enough, else one sized to the frame. Caller holds
// p.mu.
func (p *peer) soloChunkLocked(size int) *txChunk {
	if c := p.solo; c != nil && cap(c.buf) >= size {
		p.solo = nil
		return c
	}
	return &txChunk{buf: make([]byte, 0, size), solo: true}
}

// recycleChunkLocked returns a flushed chunk to the freelist (jumbo ones
// go to the GC). A solo chunk of at most txMaxPending bytes is kept
// instead if it is bigger than the one kept. Caller holds p.mu.
func (p *peer) recycleChunkLocked(c *txChunk) {
	c.buf = c.buf[:0]
	c.off, c.frames = 0, 0
	switch {
	case c.solo:
		if cap(c.buf) <= txMaxPending && (p.solo == nil || cap(p.solo.buf) < cap(c.buf)) {
			p.solo = c
		}
	case cap(c.buf) <= txChunkRecycleCap && len(p.free) < 8:
		p.free = append(p.free, c)
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
// The frame joins the queue, which the loop writes without parking
// (writeQueueLocked) — it never blocks on a socket, so one stuck peer
// cannot silence the beats to the others, and a poller parked in rx
// cannot silence this rank's. While traffic flows no Beat is sent at all.
// Replies held that long (delivery stuck) leave as the beat instead.
func (m *Mesh) beatLoop() {
	defer m.loops.Done()
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
			if quiet {
				if p.pendingBytes == 0 {
					p.appendPendingLocked(fr)
				}
				m.writeQueueLocked(p) // held replies too: the reader is stuck
			}
			p.mu.Unlock()
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
	m.closeOnce.Do(func() {
		if graceful {
			bye := &wire.Frame{Kind: wire.KindBye, Origin: m.cfg.Self}
			for _, p := range m.peers {
				if p != nil {
					m.writeFrame(p, bye) // best effort; ordered after queued data
				}
			}
			m.resumePoller() // the peers' goodbyes are the poller's to read
			deadline := time.Now().Add(2 * time.Second)
			for _, p := range m.peers {
				if p != nil {
					p.drainSends(deadline)
				}
			}
			m.waitByes(5 * time.Second)
		}
		m.shutdown()
	})
	return nil
}

// abruptClose drops every stream without the goodbye handshake: on a
// failed rendezvous and in tests simulating a crashing rank. It leaks no
// goroutine even though Close never runs.
func (m *Mesh) abruptClose() { m.closeOnce.Do(m.shutdown) }

// shutdown stops the poll and beat loops, marks every stream closed and
// closes the conns. The epoll set goes before any conn closes (a closed
// fd number can be reused while still in the set) and after every stream
// is marked closed (no flush arms EPOLLOUT on a closed stream).
func (m *Mesh) shutdown() {
	m.closed.Store(true)
	close(m.quit) // first: it ends a step-aside
	m.poller.wake()
	m.loops.Wait()
	for _, p := range m.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		p.closed = true
		p.sendable.Broadcast()
		p.mu.Unlock()
	}
	m.rxMu.Lock() // no driving rank's round is inside the set
	m.poller.destroy()
	m.rxMu.Unlock()
	for _, p := range m.peers {
		if p != nil {
			p.conn.Close()
		}
	}
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
		WaiterFrames:         m.waiterFrames.Load(),
		PlacedFrames:         m.placedFrames.Load(),
	}
	for i := range m.rxCoalesce {
		st.TxCoalesce[i] = m.txCoalesce[i].Load()
		st.RxCoalesce[i] = m.rxCoalesce[i].Load()
	}
	return st
}
