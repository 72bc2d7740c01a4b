package shmfab

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/wire"
)

// dupFD duplicates a segment file descriptor so two Segment mappings can
// each own (and close) their descriptor, as two processes would.
func dupFD(f *os.File) (*os.File, error) {
	fd, err := syscall.Dup(int(f.Fd()))
	if err != nil {
		return nil, err
	}
	return os.NewFile(uintptr(fd), f.Name()), nil
}

// heapPair builds two attached meshes over one heap segment.
func heapPair(t *testing.T, cfg func(*Config)) (*Mesh, *Mesh) {
	t.Helper()
	seg := NewHeapSegment(0, 1)
	mk := func(self int) *Mesh {
		c := Config{Self: self, N: 2, Segments: []*Segment{nil, nil}}
		c.Segments[1-self] = seg
		if cfg != nil {
			cfg(&c)
		}
		m, err := Attach(c)
		if err != nil {
			t.Fatalf("Attach(%d): %v", self, err)
		}
		return m
	}
	return mk(0), mk(1)
}

type capture struct {
	mu     sync.Mutex
	frames []wire.Frame
	downs  []int
}

func (c *capture) rx(from int, fr *wire.Frame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := *fr
	cp.Data = append([]byte(nil), fr.Data...) // the Link contract: copy before returning
	c.frames = append(c.frames, cp)
}

func (c *capture) down(rank int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.downs = append(c.downs, rank)
}

// closePair closes both ends of a pair gracefully at the same time, as two
// finishing ranks do. A graceful Close waits for the peer's goodbye, which
// the peer only publishes from its own Close: closed one after the other,
// the first would sit out its whole goodbye deadline. The bound asserts the
// handshake completed rather than timed out.
func closePair(t *testing.T, m0, m1 *Mesh) {
	t.Helper()
	start := time.Now()
	var wg sync.WaitGroup
	for _, m := range []*Mesh{m0, m1} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Close(true)
		}()
	}
	wg.Wait()
	if d := time.Since(start); d > 4*time.Second { // Close gives up on the goodbye after 5 s
		t.Errorf("graceful close of a live pair took %v: the goodbye handshake timed out", d)
	}
}

func (c *capture) waitFrames(t *testing.T, n int) []wire.Frame {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		if len(c.frames) >= n {
			out := append([]wire.Frame(nil), c.frames...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		time.Sleep(100 * time.Microsecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t.Fatalf("timed out waiting for %d frames, have %d", n, len(c.frames))
	return nil
}

// TestExchangeAllPaths pushes every encoding path through a heap pair:
// inline compact puts, bulk compact puts, compact acks, generic frames,
// and a fragmented oversized frame — verifying byte-exact delivery and
// FIFO order per direction.
func TestExchangeAllPaths(t *testing.T) {
	m0, m1 := heapPair(t, nil)
	var c0, c1 capture
	m0.Start(c0.rx, c0.down)
	m1.Start(c1.rx, c1.down)

	inline := &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, RegionID: 3,
		Offset: 96, WireSize: 5, OpID: 7, Imm: 42, ImmValid: true, Data: []byte("hello")}
	big := make([]byte, 100_000)
	for i := range big {
		big[i] = byte(i * 31)
	}
	bulk := &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, RegionID: 3,
		Offset: 4096, WireSize: len(big), OpID: 8, Data: big}
	ack := &wire.Frame{Kind: wire.KindAck, Origin: 0, Target: 1, OpID: 9, Operand: 11}
	generic := &wire.Frame{Kind: wire.KindGetReq, Origin: 0, Target: 1, RegionID: 2,
		Offset: 8, OpID: 10, Operand: 64}
	huge := make([]byte, maxBulkAlloc+fragChunk/2)
	for i := range huge {
		huge[i] = byte(i * 7)
	}
	frag := &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, RegionID: 3,
		Offset: 0, WireSize: len(huge), OpID: 11, Data: huge}

	for _, fr := range []*wire.Frame{inline, bulk, ack, generic, frag} {
		if err := m0.Send(1, fr); err != nil {
			t.Fatalf("send %v: %v", fr.Kind, err)
		}
	}
	got := c1.waitFrames(t, 5)
	if got[0].Kind != wire.KindPut || string(got[0].Data) != "hello" ||
		got[0].Imm != 42 || !got[0].ImmValid || got[0].OpID != 7 ||
		got[0].RegionID != 3 || got[0].Offset != 96 || got[0].Origin != 0 || got[0].Target != 1 {
		t.Fatalf("inline put mangled: %+v", got[0])
	}
	if !bytes.Equal(got[1].Data, big) || got[1].OpID != 8 || got[1].Offset != 4096 {
		t.Fatalf("bulk put mangled: opID=%d len=%d", got[1].OpID, len(got[1].Data))
	}
	if got[2].Kind != wire.KindAck || got[2].OpID != 9 || got[2].Operand != 11 {
		t.Fatalf("ack mangled: %+v", got[2])
	}
	if got[3].Kind != wire.KindGetReq || got[3].OpID != 10 || got[3].Operand != 64 {
		t.Fatalf("generic frame mangled: %+v", got[3])
	}
	if !bytes.Equal(got[4].Data, huge) || got[4].OpID != 11 {
		t.Fatalf("fragmented frame mangled: opID=%d len=%d", got[4].OpID, len(got[4].Data))
	}

	st := m0.ReadStats()
	if st.CompactSent < 3 || st.GenericSent < 2 || st.FragFrames != 1 {
		t.Fatalf("unexpected tx stats: %+v", st)
	}

	closePair(t, m0, m1)
	if len(c0.downs)+len(c1.downs) != 0 {
		t.Fatalf("clean close produced peer-down: %v %v", c0.downs, c1.downs)
	}
}

// TestBidirectionalStorm floods both directions concurrently (ring and
// bulk backpressure both engage) and checks per-direction FIFO integrity.
func TestBidirectionalStorm(t *testing.T) {
	m0, m1 := heapPair(t, nil)
	var c0, c1 capture
	m0.Start(c0.rx, c0.down)
	m1.Start(c1.rx, c1.down)

	const msgs = 8000
	send := func(m *Mesh, target int) {
		payload := make([]byte, 200) // above inline: exercises bulk reuse
		for i := 0; i < msgs; i++ {
			putU64(payload, 0, uint64(i))
			fr := &wire.Frame{Kind: wire.KindPut, Origin: m.self, Target: target,
				RegionID: 1, Offset: i, WireSize: len(payload), OpID: uint64(i), Data: payload}
			if err := m.Send(target, fr); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); send(m0, 1) }()
	go func() { defer wg.Done(); send(m1, 0) }()
	wg.Wait()

	for _, c := range []*capture{&c0, &c1} {
		got := c.waitFrames(t, msgs)
		for i, fr := range got {
			if fr.OpID != uint64(i) || getU64(fr.Data, 0) != uint64(i) || fr.Offset != i {
				t.Fatalf("reordered or corrupt at %d: opID=%d", i, fr.OpID)
			}
		}
	}
	closePair(t, m0, m1)
}

// TestHeartbeatDeath kills one side abruptly (no goodbye) and expects the
// survivor's monitor to declare it dead and sends to start failing.
func TestHeartbeatDeath(t *testing.T) {
	short := func(c *Config) {
		c.HeartbeatInterval = 2 * time.Millisecond
		c.HeartbeatTimeout = 150 * time.Millisecond
		c.StartupGrace = 150 * time.Millisecond
	}
	m0, m1 := heapPair(t, short)
	var c0, c1 capture
	m0.Start(c0.rx, c0.down)
	m1.Start(c1.rx, c1.down)

	// Both sides beat at least once, then rank 1 dies without goodbye.
	time.Sleep(20 * time.Millisecond)
	m1.Close(false)

	deadline := time.Now().Add(5 * time.Second)
	for {
		c0.mu.Lock()
		n := len(c0.downs)
		c0.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivor never declared the dead peer")
		}
		time.Sleep(time.Millisecond)
	}
	c0.mu.Lock()
	if c0.downs[0] != 1 {
		t.Fatalf("wrong peer declared: %v", c0.downs)
	}
	c0.mu.Unlock()
	fr := &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, WireSize: 1, Data: []byte{1}}
	if err := m0.Send(1, fr); err == nil {
		t.Fatal("send to dead peer succeeded")
	}
	m0.Close(true)
}

// TestCleanGoodbyeNoFalseDeath holds a pair open past several heartbeat
// timeouts, closes cleanly, and expects zero peer-down callbacks.
func TestCleanGoodbyeNoFalseDeath(t *testing.T) {
	short := func(c *Config) {
		c.HeartbeatInterval = 2 * time.Millisecond
		c.HeartbeatTimeout = 40 * time.Millisecond
		c.StartupGrace = 40 * time.Millisecond
	}
	m0, m1 := heapPair(t, short)
	var c0, c1 capture
	m0.Start(c0.rx, c0.down)
	m1.Start(c1.rx, c1.down)
	time.Sleep(150 * time.Millisecond)
	closePair(t, m0, m1)
	if len(c0.downs)+len(c1.downs) != 0 {
		t.Fatalf("false peer death: %v %v", c0.downs, c1.downs)
	}
}

// filePair maps one file-backed segment from two Segment instances (as two
// processes would) and attaches a mesh to each.
func filePair(t *testing.T) (*Mesh, *Mesh) {
	t.Helper()
	f, err := CreateSegmentFile(t.TempDir(), 0, 1)
	if err != nil {
		t.Fatalf("CreateSegmentFile: %v", err)
	}
	defer f.Close()
	dup := func() *os.File {
		fd, err := dupFD(f)
		if err != nil {
			t.Fatalf("dup: %v", err)
		}
		return fd
	}
	s0, err := MapFileSegment(dup(), 0, 1)
	if err != nil {
		t.Fatalf("map 0: %v", err)
	}
	s1, err := MapFileSegment(dup(), 0, 1)
	if err != nil {
		t.Fatalf("map 1: %v", err)
	}
	mk := func(self int, s *Segment) *Mesh {
		segs := []*Segment{nil, nil}
		segs[1-self] = s
		m, err := Attach(Config{Self: self, N: 2, Segments: segs})
		if err != nil {
			t.Fatalf("Attach(%d): %v", self, err)
		}
		return m
	}
	return mk(0, s0), mk(1, s1)
}

// TestFileSegmentRoundtrip exchanges a frame across a file-backed segment.
func TestFileSegmentRoundtrip(t *testing.T) {
	m0, m1 := filePair(t)
	var c0, c1 capture
	m0.Start(c0.rx, c0.down)
	m1.Start(c1.rx, c1.down)
	fr := &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, WireSize: 3,
		OpID: 1, Data: []byte{1, 2, 3}}
	if err := m0.Send(1, fr); err != nil {
		t.Fatalf("send: %v", err)
	}
	got := c1.waitFrames(t, 1)
	if !bytes.Equal(got[0].Data, []byte{1, 2, 3}) {
		t.Fatalf("mangled: %+v", got[0])
	}
	closePair(t, m0, m1)
}

// TestBulkWraparound drives enough varied bulk payloads through one
// direction that the bulk cursor wraps several times, checking the
// pad-to-wrap mirror arithmetic.
func TestBulkWraparound(t *testing.T) {
	m0, m1 := heapPair(t, nil)
	var c0, c1 capture
	m0.Start(c0.rx, c0.down)
	m1.Start(c1.rx, c1.down)
	const msgs = 300
	sizes := func(i int) int { return 40 + (i*77777)%(BulkSize/8) }
	go func() {
		for i := 0; i < msgs; i++ {
			data := make([]byte, sizes(i))
			for j := range data {
				data[j] = byte(i + j)
			}
			fr := &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1,
				RegionID: 1, Offset: i, WireSize: len(data), OpID: uint64(i), Data: data}
			if err := m0.Send(1, fr); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	got := c1.waitFrames(t, msgs)
	for i, fr := range got {
		if len(fr.Data) != sizes(i) {
			t.Fatalf("size mismatch at %d: %d != %d", i, len(fr.Data), sizes(i))
		}
		for j, b := range fr.Data {
			if b != byte(i+j) {
				t.Fatalf("corrupt byte at msg %d off %d", i, j)
			}
		}
	}
	closePair(t, m0, m1)
}

func TestPairName(t *testing.T) {
	if PairName(3, 1) != PairName(1, 3) || PairName(1, 3) != fmt.Sprintf("naseg-%d-%d", 1, 3) {
		t.Fatalf("PairName not canonical: %q %q", PairName(3, 1), PairName(1, 3))
	}
}

// TestBulkRewindsWhenDrained pins the bulk region's locality: a producer
// whose consumer keeps up goes back to offset 0 once past bulkRewind, so a
// long stream reuses a cache-warm prefix instead of walking the whole
// region; a consumer that lags keeps it moving forward. The consumer's
// cursor must follow either way, padding exactly where the producer did.
func TestBulkRewindsWhenDrained(t *testing.T) {
	const n = 4096
	r := newDirRing(NewHeapSegment(0, 1), 0)
	prod, cons := newProducer(r), newConsumer(r)
	alloc := func() uint64 {
		off, _, ok := prod.tryBulk(n)
		if !ok {
			t.Fatal("tryBulk failed on a region with room")
		}
		return off
	}
	retire := func(off uint64) {
		if !cons.bulkOK(off, n) {
			t.Fatalf("consumer rejects the allocation at %d (cursor %d)", off, cons.bulkHead%BulkSize)
		}
		cons.retireBulk(off, n)
	}
	for i := 0; i < 4*BulkSize/n; i++ { // drained after every allocation
		off := alloc()
		if off >= bulkRewind+n {
			t.Fatalf("allocation %d at %d: a drained region did not rewind past %d", i, off, bulkRewind)
		}
		retire(off)
	}
	for prod.bulkTail%BulkSize != n { // stop right after a rewind
		retire(alloc())
	}
	var lag []uint64 // never drained: the cursor must run on past bulkRewind
	for i := 0; i < bulkRewind/n+8; i++ {
		lag = append(lag, alloc())
	}
	if last := lag[len(lag)-1]; last < bulkRewind {
		t.Fatalf("a lagging consumer's region rewound to %d", last)
	}
	for _, off := range lag {
		retire(off)
	}
	if cons.bulkHead != prod.bulkTail {
		t.Fatalf("cursors diverged: consumer %d, producer %d", cons.bulkHead, prod.bulkTail)
	}
}

// TestProgressAfterCloseIsNoop calls Progress on a mesh whose file-backed
// segment Close has unmapped, with an entry waiting in its inbound ring: a
// rank's late wait must neither touch the unmapped memory nor deliver.
func TestProgressAfterCloseIsNoop(t *testing.T) {
	m0, m1 := filePair(t)
	var c0, c1 capture
	m0.Start(c0.rx, c0.down)
	m1.Start(c1.rx, c1.down)
	m1.Close(false)
	fr := &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, WireSize: 3,
		OpID: 1, Data: []byte{1, 2, 3}}
	if err := m0.Send(1, fr); err != nil {
		t.Fatalf("send: %v", err)
	}
	if m1.Progress() {
		t.Fatal("Progress on a closed mesh reported work")
	}
	c1.mu.Lock()
	n := len(c1.frames)
	c1.mu.Unlock()
	if n != 0 {
		t.Fatalf("a closed mesh delivered %d frames", n)
	}
	m0.Close(false)
}

// TestProgressConsumesOnCaller checks the waiter path in isolation, on a
// mesh whose poller never started: Progress delivers a waiting frame on
// the calling goroutine, counts it as a waiter entry, stays out while
// another consumer holds the rings, and reports nothing once they are
// empty.
func TestProgressConsumesOnCaller(t *testing.T) {
	m0, m1 := heapPair(t, nil)
	var c0, c1 capture
	m0.Start(c0.rx, c0.down)
	m1.rx, m1.peerDown = c1.rx, c1.down // consumer without a poller
	fr := &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, WireSize: 5,
		OpID: 3, Data: []byte("hello")}
	if err := m0.Send(1, fr); err != nil {
		t.Fatalf("send: %v", err)
	}
	m1.rxMu.Lock()
	if m1.Progress() {
		t.Fatal("Progress consumed while another consumer held the rings")
	}
	m1.rxMu.Unlock()
	if !m1.Progress() {
		t.Fatal("Progress found no entry in a ring holding one")
	}
	if len(c1.frames) != 1 || string(c1.frames[0].Data) != "hello" || c1.frames[0].OpID != 3 {
		t.Fatalf("Progress did not deliver the frame on the caller: %+v", c1.frames)
	}
	if n := m1.ReadStats().WaiterEntries; n != 1 {
		t.Fatalf("WaiterEntries = %d, want 1", n)
	}
	if m1.Progress() {
		t.Fatal("Progress reported work on an empty ring")
	}
	if n := testing.AllocsPerRun(100, func() { m1.Progress() }); n != 0 {
		t.Fatalf("Progress on idle rings allocates %.1f times per call", n)
	}
	m0.Close(false)
	m1.Close(false)
}
