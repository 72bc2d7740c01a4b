package fabric

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// bufPool is the fabric's registered-buffer allocator: a size-classed
// freelist of payload bounce buffers, the stand-in for the pre-registered
// transfer buffers a real RDMA stack (foMPI on uGNI, UNR) keeps so the hot
// path never registers or allocates memory per operation. Put, Accumulate,
// PostMsg, and the Get reply path draw from it and return buffers at
// operation completion, so the steady-state data path is allocation-free.
//
// Classes are powers of two from minBufClass to maxBufClass bytes; larger
// requests fall through to the garbage collector (counted as oversize).
// Each class keeps at most bufClassCap free buffers — beyond that, returns
// are dropped for the collector, bounding idle memory. The freelists are
// plain mutex-guarded stacks rather than sync.Pool so that returning a
// buffer never boxes a slice header (sync.Pool's interface conversion
// would put one allocation back on the recycle path).
type bufPool struct {
	classes [bufNumClasses]bufClass

	gets     atomic.Int64 // all Get calls
	misses   atomic.Int64 // Get calls that had to allocate (empty class)
	oversize atomic.Int64 // Get calls above the largest class
	returns  atomic.Int64 // buffers handed back
}

const (
	minBufClassBits = 6  // 64 B: one notification-ring cache line
	maxBufClassBits = 20 // 1 MiB: largest pooled transfer buffer
	bufNumClasses   = maxBufClassBits - minBufClassBits + 1
	bufClassCap     = 256 // free buffers retained per class
)

// bufClass is one size class's freelist.
type bufClass struct {
	mu   sync.Mutex
	free [][]byte
}

// classFor maps a request size to its class index, or -1 for oversize.
func classFor(n int) int {
	if n <= 0 {
		return 0
	}
	b := bits.Len(uint(n - 1)) // ceil(log2(n))
	if b < minBufClassBits {
		return 0
	}
	if b > maxBufClassBits {
		return -1
	}
	return b - minBufClassBits
}

// get returns a buffer of length n (capacity rounded to the class size).
// Contents are unspecified; every caller overwrites the full length.
func (p *bufPool) get(n int) []byte {
	p.gets.Add(1)
	ci := classFor(n)
	if ci < 0 {
		p.oversize.Add(1)
		return make([]byte, n)
	}
	c := &p.classes[ci]
	c.mu.Lock()
	if k := len(c.free); k > 0 {
		b := c.free[k-1]
		c.free[k-1] = nil
		c.free = c.free[:k-1]
		c.mu.Unlock()
		return b[:n]
	}
	c.mu.Unlock()
	p.misses.Add(1)
	return make([]byte, n, 1<<(ci+minBufClassBits))
}

// clone returns a pooled copy of b, nil when b is empty.
func (p *bufPool) clone(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	c := p.get(len(b))
	copy(c, b)
	return c
}

// put returns a buffer obtained from get. The caller must not touch b
// afterwards. Buffers whose capacity is not an exact class size (oversize
// allocations) are left to the collector.
func (p *bufPool) put(b []byte) {
	if b == nil {
		return
	}
	p.returns.Add(1)
	cp := cap(b)
	if cp == 0 || cp&(cp-1) != 0 {
		return // not a pooled class capacity
	}
	ci := classFor(cp)
	if ci < 0 || 1<<(ci+minBufClassBits) != cp {
		return
	}
	c := &p.classes[ci]
	c.mu.Lock()
	if len(c.free) < bufClassCap {
		c.free = append(c.free, b[:0])
	}
	c.mu.Unlock()
}

// PoolStats is a snapshot of the fabric's transfer-buffer pool counters.
type PoolStats struct {
	// Gets counts pool allocation requests (one per pooled payload).
	Gets int64
	// Hits counts requests served from a freelist without allocating.
	Hits int64
	// Misses counts requests that allocated because the class was empty.
	Misses int64
	// Oversize counts requests above the largest pooled class (always
	// heap-allocated).
	Oversize int64
	// Returns counts buffers recycled at operation completion.
	Returns int64
}

// HitRate returns the fraction of pool requests served without an
// allocation, in [0,1]; 0 if no requests were made.
func (s PoolStats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// PoolStats returns the fabric-wide transfer-buffer pool counters.
func (f *Fabric) PoolStats() PoolStats {
	gets := f.pool.gets.Load()
	misses := f.pool.misses.Load()
	over := f.pool.oversize.Load()
	return PoolStats{
		Gets:     gets,
		Hits:     gets - misses - over,
		Misses:   misses,
		Oversize: over,
		Returns:  f.pool.returns.Load(),
	}
}

// pktPool recycles packet descriptors. Pointer-typed, so Put/Get never
// allocate; a descriptor is released by the delivering NIC once the
// payload has been committed or handed off.
var pktPool = sync.Pool{New: func() any { return new(packet) }}

// newPacket returns a zeroed packet descriptor.
func newPacket() *packet { return pktPool.Get().(*packet) }

// releasePacket zeroes and recycles a delivered packet descriptor.
func releasePacket(pkt *packet) {
	*pkt = packet{}
	pktPool.Put(pkt)
}
