package shmfab

import (
	"fmt"
	"os"
	"sync/atomic"
	"unsafe"
)

// A window arena is one rank's window memory, mapped by every rank of the
// job: a header page, a region table that peers read, and a data area the
// owner bump-allocates windows from (DESIGN §9). With it an origin on the
// same host puts into and gets from a target's window by copying itself,
// the way the paper's XPMEM path does (§IV-C), instead of sending a frame
// the target's consumer commits and acks.
//
// Table slot i describes region ids congruent to i modulo ArenaSlots:
//
//	@0  state   region id + 1 while the window is published, else 0
//	@8  offset  the window's byte offset in the arena
//	@16 length  the window's size in bytes
//	@24 lock    the window's region lock: its word, then at @32 its
//	            32-bit wake sequence (fabric's rwword.go)
//
// Only the owner writes a slot. It stores lock, offset and length, then
// publishes with a release store of state; a peer loads state with
// acquire, then offset and length, then state again, and uses the slot
// only if both loads read the id it looks up. Each slot is a cache line,
// so one window's lock word shares its line with no other's.
const (
	// ArenaSize is the byte size of one rank's arena file or heap block.
	ArenaSize = 16 << 20
	// ArenaSlots is the region table's size.
	ArenaSlots = 1024

	arenaMagic    = 0x6e6161726e3031 // "naarn01" tag
	arenaVersion  = 1
	arenaSlotSize = 64
	arenaTable    = headerSize
	arenaData     = arenaTable + ArenaSlots*arenaSlotSize
	// arenaAlign keeps each window on its own cache lines.
	arenaAlign = 64

	slotState  = 0
	slotOffset = 8
	slotLen    = 16
	slotLock   = 24
)

// Arena is one rank's mapped window arena. Every rank maps every arena;
// only the owning rank allocates from its own (Alloc and Free run on the
// owner's NIC under its region-table lock), so the allocator state is
// the owner's private bookkeeping, never shared.
//
// A heap arena (NewHeapArena) keeps the header and table in Go memory but
// has no data area: each window is its own Go allocation, which the owner
// stores in heap[slot] before it publishes the slot, so an arena costs
// nothing until a window is allocated, as a heap window does. Its
// allocator still places each window in a data area of ArenaSize, so it
// holds exactly the windows a mapped arena would.
type Arena struct {
	mem   []byte
	heap  [][]byte     // heap arena: window bytes by slot; nil for a mapped file
	unmap func() error // mapped file: releases mem; nil for a heap arena

	// Owner-side allocator: top is the bump cursor, high the most the
	// data area was ever handed out (bytes below it may be dirty), live
	// the allocations in address order.
	top, high int
	live      []arenaAlloc
}

type arenaAlloc struct {
	id, off int
	freed   bool
}

func (a *Arena) word(off int) *uint64 { return (*uint64)(unsafe.Pointer(&a.mem[off])) }

// lock is slot s's region lock, as fabric.WindowArenas hands it out.
func (a *Arena) lock(s int) *[2]uint64 { return (*[2]uint64)(unsafe.Pointer(&a.mem[s+slotLock])) }

func (a *Arena) slot(id int) int { return arenaTable + id%ArenaSlots*arenaSlotSize }

// init writes the header words, magic last with release (Segment.init).
func (a *Arena) init() {
	atomic.StoreUint64(a.word(hdrVersion), arenaVersion)
	atomic.StoreUint64(a.word(hdrEntries), ArenaSlots)
	atomic.StoreUint64(a.word(hdrBulk), uint64(len(a.mem)))
	atomic.StoreUint64(a.word(hdrMagic), arenaMagic)
}

// validate checks a mapped arena's header, initializing a fresh one.
func (a *Arena) validate() error {
	if len(a.mem) != ArenaSize {
		return fmt.Errorf("shmfab: arena is %d bytes, want %d", len(a.mem), ArenaSize)
	}
	if atomic.LoadUint64(a.word(hdrMagic)) == 0 {
		a.init()
	}
	if m := atomic.LoadUint64(a.word(hdrMagic)); m != arenaMagic {
		return fmt.Errorf("shmfab: bad arena magic %#x", m)
	}
	if v := atomic.LoadUint64(a.word(hdrVersion)); v != arenaVersion {
		return fmt.Errorf("shmfab: arena version %d, want %d", v, arenaVersion)
	}
	if s := atomic.LoadUint64(a.word(hdrEntries)); s != ArenaSlots {
		return fmt.Errorf("shmfab: arena table of %d slots, want %d", s, ArenaSlots)
	}
	if s := atomic.LoadUint64(a.word(hdrBulk)); s != ArenaSize {
		return fmt.Errorf("shmfab: arena size %d, want %d", s, ArenaSize)
	}
	return nil
}

// Alloc takes size zeroed bytes for region id and publishes them in the
// table. It fails when id's slot holds a live window or the data area
// has no room. Owner only.
func (a *Arena) Alloc(id, size int) ([]byte, *[2]uint64, bool) {
	i := id % ArenaSlots
	s := a.slot(id)
	if size < 0 || atomic.LoadUint64(a.word(s+slotState)) != 0 {
		return nil, nil, false
	}
	off := (max(a.top, arenaData) + arenaAlign - 1) &^ (arenaAlign - 1)
	if size > ArenaSize-off {
		return nil, nil, false
	}
	end := off + size
	var buf []byte
	if a.heap != nil {
		buf = make([]byte, size)
		a.heap[i] = buf
	} else {
		// Bytes never handed out are still zero: clear only what an
		// earlier window dirtied, so a fresh arena is never touched ahead
		// of use.
		if off < a.high {
			clear(a.mem[off:min(end, a.high)])
		}
		buf = a.mem[off:end:end]
	}
	a.top, a.high = end, max(a.high, end)
	a.live = append(a.live, arenaAlloc{id: id, off: off})
	atomic.StoreUint64(a.word(s+slotLock), 0)
	atomic.StoreUint64(a.word(s+slotOffset), uint64(off))
	atomic.StoreUint64(a.word(s+slotLen), uint64(size))
	atomic.StoreUint64(a.word(s+slotState), uint64(id)+1) // release
	return buf, a.lock(s), true
}

// Free unpublishes region id and rewinds the bump cursor past every
// freed allocation at the top. Owner only; the layers above free a
// window only once no peer can still access it (rma's Free is
// collective).
func (a *Arena) Free(id int) {
	s := a.slot(id)
	if atomic.LoadUint64(a.word(s+slotState)) != uint64(id)+1 {
		return
	}
	atomic.StoreUint64(a.word(s+slotState), 0)
	if a.heap != nil {
		a.heap[id%ArenaSlots] = nil
	}
	for i := range a.live {
		if a.live[i].id == id && !a.live[i].freed {
			a.live[i].freed = true
			break
		}
	}
	for k := len(a.live); k > 0 && a.live[k-1].freed; k = len(a.live) {
		a.top = a.live[k-1].off
		a.live = a.live[:k-1]
	}
}

// reset unpublishes every slot and marks the whole data area dirty: the
// owner's view of an arena file an earlier job may have used. Owner only,
// before it publishes a window.
func (a *Arena) reset() {
	for i := 0; i < ArenaSlots; i++ {
		atomic.StoreUint64(a.word(a.slot(i)+slotState), 0)
	}
	a.top, a.high, a.live = 0, len(a.mem), nil
}

// Lookup resolves region id to its published bytes and lock word, or
// reports false when the owner published no such window. A slot a
// corrupt or hostile owner filled with an out-of-range span reads as
// unpublished.
func (a *Arena) Lookup(id int) ([]byte, *[2]uint64, bool) {
	s := a.slot(id)
	want := uint64(id) + 1
	if atomic.LoadUint64(a.word(s+slotState)) != want { // acquire
		return nil, nil, false
	}
	if a.heap != nil {
		return a.heap[id%ArenaSlots], a.lock(s), true
	}
	off := atomic.LoadUint64(a.word(s + slotOffset))
	n := atomic.LoadUint64(a.word(s + slotLen))
	if atomic.LoadUint64(a.word(s+slotState)) != want ||
		off < arenaData || off%arenaAlign != 0 || n > uint64(len(a.mem))-off {
		return nil, nil, false
	}
	return a.mem[off : off+n : off+n], a.lock(s), true
}

// NewHeapArena builds an in-process arena (the local shm cluster): a
// header and table in Go memory the rank goroutines share, allocated as
// []uint64 so the table words are aligned, and one Go allocation per
// window.
func NewHeapArena() *Arena {
	words := make([]uint64, arenaData/8)
	a := &Arena{
		mem:  unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), arenaData),
		heap: make([][]byte, ArenaSlots),
	}
	a.init()
	return a
}

// MapFileArena sizes and maps an arena file, which may be fresh or
// already initialized, like a segment's. It stays mapped until
// UnmapArenas.
func MapFileArena(f *os.File) (*Arena, error) {
	if err := f.Truncate(ArenaSize); err != nil {
		return nil, fmt.Errorf("shmfab: sizing arena: %w", err)
	}
	mem, unmap, err := mapShared(f, ArenaSize)
	if err != nil {
		return nil, err
	}
	a := &Arena{mem: mem, unmap: unmap}
	if err := a.validate(); err != nil {
		unmap()
		return nil, err
	}
	return a, nil
}

// ArenaName is the file name under NA_SHM_DIR for rank's arena.
func ArenaName(rank int) string { return fmt.Sprintf("naarena-%d", rank) }

// ArenaKey is the key of rank's arena in an fd map (MapFDs): pair
// segments are keyed by peer rank, arenas by negative keys.
func ArenaKey(rank int) int { return -1 - rank }

// CreateArenaFile makes rank's anonymous arena file (CreateSegmentFile's
// twin); the launcher passes it to every rank.
func CreateArenaFile(dir string, rank int) (*os.File, error) {
	return createShmFile(dir, ArenaName(rank), ArenaSize)
}

// UnmapArenas releases the mapped arenas among arenas (heap ones need
// nothing). No window in them may be used afterwards.
func UnmapArenas(arenas []*Arena) {
	for _, a := range arenas {
		if a != nil && a.unmap != nil {
			a.unmap()
			a.unmap, a.mem = nil, nil
		}
	}
}

// Windows is one rank's view of its job's window arenas, one per rank:
// it allocates windows from its own and resolves peers' in theirs. It is
// the shm engine's fabric.WindowArenas.
type Windows struct {
	self   int
	arenas []*Arena
}

// NewWindows returns rank self's view of arenas, which must hold an arena
// for every rank of the job.
func NewWindows(self int, arenas []*Arena) (*Windows, error) {
	if self < 0 || self >= len(arenas) {
		return nil, fmt.Errorf("shmfab: rank %d outside %d window arenas", self, len(arenas))
	}
	for r, a := range arenas {
		if a == nil {
			return nil, fmt.Errorf("shmfab: no window arena for rank %d", r)
		}
	}
	return &Windows{self: self, arenas: arenas}, nil
}

// AllocWindow takes a window for region id from this rank's arena.
func (w *Windows) AllocWindow(id, size int) ([]byte, *[2]uint64, bool) {
	return w.arenas[w.self].Alloc(id, size)
}

// FreeWindow returns region id's window to this rank's arena.
func (w *Windows) FreeWindow(id int) { w.arenas[w.self].Free(id) }

// PeerWindow resolves rank's published region id in its arena.
func (w *Windows) PeerWindow(rank, id int) ([]byte, *[2]uint64, bool) {
	return w.arenas[rank].Lookup(id)
}
