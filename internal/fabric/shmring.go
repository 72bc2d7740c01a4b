package fabric

import "fmt"

// shmRing is the XPMEM-style intra-node notification ring buffer the paper
// describes (§IV-C): a bounded queue of cache-line-sized entries shared
// between processes on one node. Each entry carries source and tag plus a
// payload field with the destination offset — and, for small puts, the
// data itself ("inline transfer"), saving the separate memcpy cache-line
// traffic. The consumer drains entries during Test/Wait, copying inline
// payloads into the window at that point.
//
// RingEntrySize is a cache line; RingInlineCapacity is what remains after
// the header fields (source 4B + imm 4B + region 4B + offset 4B + len 4B +
// flags 4B = 24B header -> 40B payload).
const (
	// RingEntrySize is the modeled entry footprint (one cache line).
	RingEntrySize = 64
	// RingInlineCapacity is the largest payload carried inside an entry.
	RingInlineCapacity = RingEntrySize - 24
	// RingCapacity is the number of entries per ring (the paper's bounded
	// buffer; overflow indicates a missing application-level flow control).
	RingCapacity = 4096
)

// ringEntry is one notification in the shared-memory ring.
type ringEntry struct {
	source   int
	imm      uint32
	kind     OpKind
	regionID int
	offset   int
	length   int
	inline   []byte // nil unless the payload rides in the entry
	pooled   bool   // inline came from the buffer pool; recycle at commit
}

// shmRing is a fixed-capacity circular buffer. It shares the owning NIC's
// mutex and destination gate, so producers (delivery context) and the
// consumer (owner rank in Test/Wait) synchronize exactly like the uGNI CQ.
// Its storage (RingCapacity entries, ~320 KiB) is made by the first push:
// the ring only holds notifications that arrive before the target's first
// NA call installs its window's sink, so most NICs never use it.
type shmRing struct {
	entries   []ringEntry // nil until the first push
	head      int         // next pop
	count     int
	highWater int
}

// push appends an entry; the caller holds the NIC mutex.
func (r *shmRing) push(e ringEntry) {
	if r.entries == nil {
		r.entries = make([]ringEntry, RingCapacity)
	}
	if r.count == RingCapacity {
		panic(fmt.Sprintf("fabric: shared-memory notification ring overflow (%d entries): the application is missing flow control", RingCapacity))
	}
	r.entries[(r.head+r.count)%RingCapacity] = e
	r.count++
	if r.count > r.highWater {
		r.highWater = r.count
	}
}

// pop removes the oldest entry; the caller holds the NIC mutex.
func (r *shmRing) pop() (ringEntry, bool) {
	if r.count == 0 {
		return ringEntry{}, false
	}
	e := r.entries[r.head]
	r.entries[r.head] = ringEntry{} // release the inline payload
	r.head = (r.head + 1) % RingCapacity
	r.count--
	return e, true
}
