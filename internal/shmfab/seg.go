// Package shmfab is the intra-host cross-process transport: one mmap'd
// segment per rank pair, holding a pair of single-producer/single-consumer
// rings plus a bump-allocated bulk region, over which two OS processes on
// the same machine exchange wire frames with zero socket traffic. It is
// the XPMEM analog of the paper's intra-node mode — the entry layout
// mirrors fabric/shmring.go (64-byte cache-line entries, 24-byte header,
// 40-byte inline payload, 4096-entry bounded queue) and publication uses
// exactly the release/acquire discipline the interleaving checker's
// Snippet-1 model verifies: payload and entry stores are plain (relaxed),
// the producer's tail store is a release, the consumer's tail load an
// acquire, all via sync/atomic on the mapped words.
//
// Like netfab, the package is a leaf: it depends only on internal/wire and
// internal/beat (the stall detector both meshes share) and satisfies
// fabric.Link structurally — lossless and in-order by construction, like
// the TCP stream.
package shmfab

import (
	"fmt"
	"os"
	"sync/atomic"
	"unsafe"
)

// Ring geometry. EntrySize/InlineCapacity/RingEntries deliberately equal
// fabric's RingEntrySize/RingInlineCapacity/RingCapacity: the cross-process
// ring is the same structure as the in-process notification ring, shared
// over mmap instead of the NIC mutex.
const (
	// EntrySize is one ring entry: a cache line.
	EntrySize = 64
	// InlineCapacity is the payload carried inside an entry after the
	// 24-byte header (3 control words).
	InlineCapacity = EntrySize - 24
	// RingEntries is the bounded queue depth per direction.
	RingEntries = 4096
	// BulkSize is the per-direction circular bulk region for payloads
	// above InlineCapacity (and for generically encoded control frames).
	BulkSize = 4 << 20
)

// Segment layout: a header page, then two direction blocks. Direction 0
// always flows lower rank -> higher rank. Each direction block is a
// control area (each word on its own cache line), the entry ring, and the
// bulk region.
const (
	segMagic   = 0x6e6173686d3031 // "nashm01" tag
	segVersion = 2

	headerSize = 4096
	ctrlSize   = 512
	dirSize    = ctrlSize + RingEntries*EntrySize + BulkSize

	// SegmentSize is the full byte size of one rank-pair segment.
	SegmentSize = headerSize + 2*dirSize

	// Header word offsets.
	hdrMagic   = 0
	hdrVersion = 8
	hdrEntries = 16
	hdrBulk    = 24

	// Control word offsets within a direction block. Producer-owned words
	// (tail, bulkTail, heartbeat, closed) and consumer-owned words (head,
	// bulkHead) each sit on their own cache line so the two sides never
	// write the same line.
	offTail      = 0
	offHead      = 64
	offBulkTail  = 128
	offBulkHead  = 192
	offHeartbeat = 256
	offClosed    = 320
)

// Segment is one mapped rank-pair segment. Lo < Hi are the two ranks
// sharing it; direction 0 carries Lo's sends to Hi.
type Segment struct {
	Lo, Hi int
	mem    []byte
	unmap  func() error // nil for heap-backed segments
}

// word returns the mapped uint64 at byte offset off. The mapping is page
// aligned (heap segments are allocated as []uint64), so every control
// offset is 8-byte aligned.
func (s *Segment) word(off int) *uint64 {
	return (*uint64)(unsafe.Pointer(&s.mem[off]))
}

// dir returns the byte range of direction d's block.
func (s *Segment) dir(d int) []byte {
	base := headerSize + d*dirSize
	return s.mem[base : base+dirSize : base+dirSize]
}

// init writes the header words. Both mapping processes may run it
// concurrently on a fresh file: every store writes the same constant, so
// the race is benign across processes, and the magic word is stored last
// with release so a validating reader that observes it also observes the
// geometry words.
func (s *Segment) init() {
	atomic.StoreUint64(s.word(hdrVersion), segVersion)
	atomic.StoreUint64(s.word(hdrEntries), RingEntries)
	atomic.StoreUint64(s.word(hdrBulk), BulkSize)
	atomic.StoreUint64(s.word(hdrMagic), segMagic)
}

// validate checks a mapped segment's header, initializing it first when
// the segment is fresh (magic still zero).
func (s *Segment) validate() error {
	if len(s.mem) != SegmentSize {
		return fmt.Errorf("shmfab: segment is %d bytes, want %d", len(s.mem), SegmentSize)
	}
	if uintptr(unsafe.Pointer(&s.mem[0]))%8 != 0 {
		return fmt.Errorf("shmfab: segment base not 8-byte aligned")
	}
	if atomic.LoadUint64(s.word(hdrMagic)) == 0 {
		s.init()
	}
	if m := atomic.LoadUint64(s.word(hdrMagic)); m != segMagic {
		return fmt.Errorf("shmfab: bad segment magic %#x", m)
	}
	if v := atomic.LoadUint64(s.word(hdrVersion)); v != segVersion {
		return fmt.Errorf("shmfab: segment version %d, want %d", v, segVersion)
	}
	if e := atomic.LoadUint64(s.word(hdrEntries)); e != RingEntries {
		return fmt.Errorf("shmfab: segment ring depth %d, want %d", e, RingEntries)
	}
	if b := atomic.LoadUint64(s.word(hdrBulk)); b != BulkSize {
		return fmt.Errorf("shmfab: segment bulk size %d, want %d", b, BulkSize)
	}
	return nil
}

// Close unmaps a file-backed segment (no-op for heap segments).
func (s *Segment) Close() error {
	if s.unmap == nil {
		return nil
	}
	u := s.unmap
	s.unmap = nil
	return u()
}

// NewHeapSegment builds an in-process segment for tests and the local shm
// cluster: the "mapping" is ordinary heap memory shared by reference
// between rank goroutines. Allocated as []uint64 so the control words are
// aligned for sync/atomic.
func NewHeapSegment(lo, hi int) *Segment {
	words := make([]uint64, SegmentSize/8)
	s := &Segment{
		Lo:  lo,
		Hi:  hi,
		mem: unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), SegmentSize),
	}
	s.init()
	return s
}

// MapFileSegment sizes and maps a segment file shared with one peer. The
// file may be fresh (the mapper initializes it) or already initialized by
// the launcher or the peer; Truncate to the fixed size is idempotent.
func MapFileSegment(f *os.File, lo, hi int) (*Segment, error) {
	if err := f.Truncate(SegmentSize); err != nil {
		return nil, fmt.Errorf("shmfab: sizing segment: %w", err)
	}
	mem, unmap, err := mapShared(f, SegmentSize)
	if err != nil {
		return nil, err
	}
	s := &Segment{Lo: lo, Hi: hi, mem: mem, unmap: unmap}
	if err := s.validate(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// PairName is the file name under NA_SHM_DIR for the (lo,hi) pair segment.
func PairName(lo, hi int) string {
	if lo > hi {
		lo, hi = hi, lo
	}
	return fmt.Sprintf("naseg-%d-%d", lo, hi)
}

// OpenDirSegments opens (creating as needed) this rank's segment files in
// dir, one per peer, and maps them. Returned slice is indexed by peer rank
// with a nil at self.
func OpenDirSegments(dir string, self, n int) ([]*Segment, error) {
	segs := make([]*Segment, n)
	for peer := 0; peer < n; peer++ {
		if peer == self {
			continue
		}
		lo, hi := self, peer
		if lo > hi {
			lo, hi = hi, lo
		}
		f, err := os.OpenFile(dir+"/"+PairName(lo, hi), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			closeSegments(segs)
			return nil, fmt.Errorf("shmfab: opening segment for peer %d: %w", peer, err)
		}
		s, err := MapFileSegment(f, lo, hi)
		f.Close() // the mapping survives the descriptor
		if err != nil {
			closeSegments(segs)
			return nil, err
		}
		segs[peer] = s
	}
	return segs, nil
}

// MapFDSegments maps fd-passed segments: fds[peer] is an inherited
// descriptor (from the launcher's ExtraFiles) for the pair shared with
// that peer. Returned slice is indexed by peer rank with nil at self.
func MapFDSegments(fds map[int]*os.File, self, n int) ([]*Segment, error) {
	segs := make([]*Segment, n)
	for peer, f := range fds {
		if peer == self || peer < 0 || peer >= n {
			closeSegments(segs)
			return nil, fmt.Errorf("shmfab: bad peer %d in fd map", peer)
		}
		lo, hi := self, peer
		if lo > hi {
			lo, hi = hi, lo
		}
		s, err := MapFileSegment(f, lo, hi)
		f.Close()
		if err != nil {
			closeSegments(segs)
			return nil, err
		}
		segs[peer] = s
	}
	for peer := 0; peer < n; peer++ {
		if peer != self && segs[peer] == nil {
			closeSegments(segs)
			return nil, fmt.Errorf("shmfab: no segment fd for peer %d", peer)
		}
	}
	return segs, nil
}

func closeSegments(segs []*Segment) {
	for _, s := range segs {
		if s != nil {
			s.Close()
		}
	}
}

// CreateSegmentFile makes one anonymous shared segment file for a rank
// pair: memfd_create where available, else an unlinked temp file (in dir
// when non-empty, falling back to the system temp directory). The launcher
// calls it once per pair and passes the file to both children.
func CreateSegmentFile(dir string, lo, hi int) (*os.File, error) {
	if f, err := memfdCreate(PairName(lo, hi)); err == nil {
		if err := f.Truncate(SegmentSize); err != nil {
			f.Close()
			return nil, err
		}
		return f, nil
	}
	f, err := os.CreateTemp(dir, PairName(lo, hi)+"-*")
	if err != nil {
		return nil, err
	}
	os.Remove(f.Name()) // anonymous: the fd keeps it alive
	if err := f.Truncate(SegmentSize); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}
