package shmfab

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"repro/internal/futex"
)

// One direction of a segment: an SPSC ring of EntrySize entries plus a
// circular bulk region, with monotonic uint64 cursors.
//
// Publication discipline (Snippet 1, verified by internal/check's ring
// models): the producer writes entry bytes — and any bulk payload the
// entry references — with plain stores, then publishes with a release
// store of tail; the consumer loads tail with acquire, reads the entry and
// payload with plain loads, then retires with a release store of head
// (and bulkHead), which the producer loads with acquire before reusing
// space. sync/atomic on the mapped words gives exactly these fences (Go
// atomics are sequentially consistent, a superset of release/acquire),
// and makes the cross-goroutine case visible to the race detector.
//
// Doorbell: armed is the consumer's futex word. A consumer that is about
// to sleep stores bellArmed and then re-polls; a producer publishes (tail
// store) and then loads armed. Both pairs are sequentially consistent, so
// either the consumer's re-poll sees the entry or the producer sees the
// word armed and rings: it moves the word to bellRung with a CAS (one
// ring per sleep: nobody re-arms a rung word before the consumer is awake)
// and issues FUTEX_WAKE. While the word is not armed a publish costs one
// extra load and no syscall.
type dirRing struct {
	tail      *uint64 // producer-owned, published with release
	head      *uint64 // consumer-owned
	bulkTail  *uint64 // producer-owned bulk byte cursor
	bulkHead  *uint64 // consumer-owned bulk byte cursor
	heartbeat *uint64 // producer liveness counter
	closed    *uint64 // producer's clean-goodbye flag
	armed     *uint32 // consumer's doorbell: bellArmed while it sleeps
	entries   []byte  // RingEntries * EntrySize
	bulk      []byte  // BulkSize
}

func newDirRing(s *Segment, d int) dirRing {
	base := headerSize + d*dirSize
	block := s.dir(d)
	return dirRing{
		tail:      s.word(base + offTail),
		head:      s.word(base + offHead),
		bulkTail:  s.word(base + offBulkTail),
		bulkHead:  s.word(base + offBulkHead),
		heartbeat: s.word(base + offHeartbeat),
		closed:    s.word(base + offClosed),
		armed:     s.word32(base + offArmed),
		entries:   block[ctrlSize : ctrlSize+RingEntries*EntrySize],
		bulk:      block[ctrlSize+RingEntries*EntrySize:],
	}
}

// Doorbell word values. Only bellArmed asks a producer to ring, and it is
// the one value a sleeper waits on. bellRung (a producer's ring) and
// bellKicked (a wake from the consumer's own process: a spilled reply, a
// given-up drive, Close) differ from it, so a sleeper not yet in the kernel returns at
// once; the woken consumer resets them to bellAwake.
const (
	bellAwake  = 0
	bellArmed  = 1
	bellKicked = 2
	bellRung   = 3
)

// ring wakes the consumer of r if it sleeps, and reports whether it did.
func (r *dirRing) ring() bool {
	if atomic.LoadUint32(r.armed) != bellArmed || !atomic.CompareAndSwapUint32(r.armed, bellArmed, bellRung) {
		return false
	}
	futex.Wake(r.armed, 1)
	return true
}

// pollBells is the doorbell sleep without futex_waitv (another platform,
// or a Linux kernel before 5.16): it returns once any word is no longer
// armed, or after a millisecond, looking every 50 µs.
func pollBells(words []*uint32) {
	for deadline := time.Now().Add(time.Millisecond); time.Now().Before(deadline); {
		for _, w := range words {
			if atomic.LoadUint32(w) != bellArmed {
				return
			}
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// bulkAlign keeps bulk allocations 8-byte aligned so the consumer's mirror
// arithmetic is exact.
const bulkAlign = 8

// bulkRewind is how far into the bulk region an allocation may start
// before a drained region sends the producer back to its start. A stream
// the consumer keeps up with then cycles through a cache-warm prefix of
// the region instead of walking all of it, one cold line per store.
const bulkRewind = 128 << 10

func alignBulk(n int) uint64 { return uint64(n+bulkAlign-1) &^ (bulkAlign - 1) }

// producer is the sending side's local view of one direction. tail and
// bulkTail are single-writer, so the producer trusts its local copies and
// only touches the shared words to publish; head/bulkHead are re-loaded
// (acquire) only when the cached value says the ring looks full.
type producer struct {
	r              dirRing
	tail           uint64
	bulkTail       uint64
	cachedHead     uint64
	cachedBulkHead uint64
}

func newProducer(r dirRing) *producer {
	// Recover cursors from the segment: a producer only ever attaches to
	// a fresh segment in practice, but reading the published words keeps
	// re-attachment (tests) coherent.
	return &producer{
		r:              r,
		tail:           atomic.LoadUint64(r.tail),
		bulkTail:       atomic.LoadUint64(r.bulkTail),
		cachedHead:     atomic.LoadUint64(r.head),
		cachedBulkHead: atomic.LoadUint64(r.bulkHead),
	}
}

// tryReserve returns the next entry's bytes, or false when the ring is
// full. The entry is published only by the following publish() call.
func (p *producer) tryReserve() ([]byte, bool) {
	if p.tail-p.cachedHead >= RingEntries {
		p.cachedHead = atomic.LoadUint64(p.r.head) // acquire
		if p.tail-p.cachedHead >= RingEntries {
			return nil, false
		}
	}
	off := int(p.tail%RingEntries) * EntrySize
	return p.r.entries[off : off+EntrySize : off+EntrySize], true
}

// publish makes the reserved entry (and any bulk bytes it references)
// visible: the release store on tail orders every prior plain store
// before the consumer's acquire load. It then rings the consumer's
// doorbell if it sleeps, and reports whether it had to.
func (p *producer) publish() bool {
	p.tail++
	atomic.StoreUint64(p.r.tail, p.tail) // release
	return p.r.ring()
}

// tryBulk reserves n contiguous bulk bytes, padding to the region end on
// wrap — or early, once past bulkRewind with every earlier allocation
// retired. No pad length is recorded: an allocation at offset 0 that does
// not start at the consumer's cursor tells it the rest of the region was
// padded (retireBulk). Returns the region offset and the writable bytes.
func (p *producer) tryBulk(n int) (uint64, []byte, bool) {
	need := alignBulk(n)
	pos := p.bulkTail % BulkSize
	rewind := pos >= bulkRewind && need <= pos // a drained region has room at 0
	if rewind && p.bulkTail != p.cachedBulkHead {
		p.cachedBulkHead = atomic.LoadUint64(p.r.bulkHead) // acquire
	}
	if pos+need > BulkSize || rewind && p.bulkTail == p.cachedBulkHead {
		need += BulkSize - pos // pad-to-wrap: allocation restarts at 0
		pos = 0
	}
	if p.bulkTail+need-p.cachedBulkHead > BulkSize {
		p.cachedBulkHead = atomic.LoadUint64(p.r.bulkHead) // acquire
		if p.bulkTail+need-p.cachedBulkHead > BulkSize {
			return 0, nil, false
		}
	}
	p.bulkTail += need
	return pos, p.r.bulk[pos : pos+uint64(n) : pos+uint64(n)], true
}

// close publishes the clean-goodbye flag; ordered after every prior
// publish, so a consumer that observes closed==1 and head==tail has seen
// the complete stream. It rings like a publish: a sleeping consumer must
// see the goodbye.
func (p *producer) close() {
	atomic.StoreUint64(p.r.closed, 1)
	p.r.ring()
}

// beat bumps the liveness counter the peer's monitor watches.
func (p *producer) beat() { atomic.AddUint64(p.r.heartbeat, 1) }

// consumer is the receiving side's local view of the peer's direction,
// touched only by the holder of the mesh's rxMu (the poller, or a rank
// consuming in Progress). Entries and their bulk spans
// retire in order as they are consumed: the fabric commits a frame before
// its rx callback returns, so nothing references the bytes afterwards.
type consumer struct {
	r          dirRing
	head       uint64
	cachedTail uint64
	bulkHead   uint64
}

func newConsumer(r dirRing) *consumer {
	return &consumer{
		r:          r,
		head:       atomic.LoadUint64(r.head),
		bulkHead:   atomic.LoadUint64(r.bulkHead),
		cachedTail: atomic.LoadUint64(r.tail),
	}
}

// poll returns the oldest unconsumed entry without retiring it, or false
// when the ring is empty.
func (c *consumer) poll() ([]byte, bool) {
	if c.head == c.cachedTail {
		c.cachedTail = atomic.LoadUint64(c.r.tail) // acquire
		if c.head == c.cachedTail {
			return nil, false
		}
	}
	off := int(c.head%RingEntries) * EntrySize
	return c.r.entries[off : off+EntrySize : off+EntrySize], true
}

// bulkBytes resolves a bulk reference from an entry, mirroring the
// producer's pad-to-wrap arithmetic on the local cursor.
func (c *consumer) bulkBytes(off uint64, n int) []byte {
	return c.r.bulk[off : off+uint64(n) : off+uint64(n)]
}

// bulkOK checks a bulk reference before use (a corrupt entry from a dying
// peer must fail the peer, not panic the consumer): in bounds, and either
// at the cursor or at 0 after a pad to wrap.
func (c *consumer) bulkOK(off uint64, n int) bool {
	return n > 0 && off < BulkSize && uint64(n) <= BulkSize-off &&
		(off == 0 || off == c.bulkHead%BulkSize)
}

// advance retires the current entry (release store of head). A bulk span
// the entry references is retired first, through retireBulk.
func (c *consumer) advance() {
	c.head++
	atomic.StoreUint64(c.r.head, c.head) // release
}

// retireBulk frees the oldest outstanding allocation, the n bytes a
// checked entry (bulkOK) placed at off; one at 0 that is not at the cursor
// retires the pad before it too (release store of bulkHead).
func (c *consumer) retireBulk(off uint64, n int) {
	if pos := c.bulkHead % BulkSize; pos != off {
		c.bulkHead += BulkSize - pos
	}
	c.bulkHead += alignBulk(n)
	atomic.StoreUint64(c.r.bulkHead, c.bulkHead) // release
}

// closedAndDrained reports a clean goodbye: the producer closed and every
// published entry has been consumed. The tail re-load after observing
// closed matters: close() stores after the final publish, so observing it
// (acquire) guarantees the final tail value is visible. Head is read from
// the shared word, not the consumer-local cursor — this runs on the monitor
// goroutine.
func (c *consumer) closedAndDrained() bool {
	if atomic.LoadUint64(c.r.closed) == 0 {
		return false
	}
	return atomic.LoadUint64(c.r.head) == atomic.LoadUint64(c.r.tail)
}

// heartbeatValue reads the peer producer's liveness counter.
func (c *consumer) heartbeatValue() uint64 { return atomic.LoadUint64(c.r.heartbeat) }

func putU64(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }
func getU64(b []byte, off int) uint64    { return binary.LittleEndian.Uint64(b[off:]) }
func putU32(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
func getU32(b []byte, off int) uint32    { return binary.LittleEndian.Uint32(b[off:]) }
func putU16(b []byte, off int, v uint16) { binary.LittleEndian.PutUint16(b[off:], v) }
func getU16(b []byte, off int) uint16    { return binary.LittleEndian.Uint16(b[off:]) }
