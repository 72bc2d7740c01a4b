package shmfab

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/wire"
)

// mapArenaTwice maps one arena file twice, as the owner's process and a
// peer's would.
func mapArenaTwice(t *testing.T) (owner, peer *Arena) {
	t.Helper()
	f, err := CreateArenaFile(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if owner, err = MapFileArena(f); err != nil {
		t.Fatal(err)
	}
	if peer, err = MapFileArena(f); err != nil {
		t.Fatal(err)
	}
	return owner, peer
}

// TestArenaAllocLookupFree checks a mapped arena's region table and bump
// allocator across two mappings: a published window resolves at the peer
// to the same bytes and lock word, a freed one stops resolving, freeing
// the top allocations rewinds the cursor, and a window handed out again
// over dirty bytes comes back zeroed.
func TestArenaAllocLookupFree(t *testing.T) {
	owner, peer := mapArenaTwice(t)
	a, lockA, ok := owner.Alloc(1, 100)
	if !ok {
		t.Fatal("Alloc(1, 100) failed on a fresh arena")
	}
	b, _, ok := owner.Alloc(3, 4096)
	if !ok {
		t.Fatal("Alloc(3, 4096) failed")
	}
	copy(a, "window one")
	copy(b, "window three")

	pa, plock, ok := peer.Lookup(1)
	if !ok || !bytes.Equal(pa[:10], []byte("window one")) || len(pa) != 100 {
		t.Fatalf("peer Lookup(1) = %q (len %d), %v", pa[:10], len(pa), ok)
	}
	atomic.StoreUint64(&plock[0], 7)
	if atomic.LoadUint64(&lockA[0]) != 7 {
		t.Fatal("owner and peer see different lock words for region 1")
	}
	atomic.StoreUint64(&plock[0], 0)
	if _, _, ok := peer.Lookup(2); ok {
		t.Error("Lookup of an unpublished region succeeded")
	}
	if _, _, ok := peer.Lookup(1 + ArenaSlots); ok {
		t.Error("Lookup of another id in region 1's slot succeeded")
	}
	if _, _, ok := owner.Alloc(1+ArenaSlots, 8); ok {
		t.Error("Alloc into a live window's slot succeeded")
	}
	if _, _, ok := owner.Alloc(4, ArenaSize); ok {
		t.Error("Alloc larger than the arena succeeded")
	}

	top := owner.top
	owner.Free(1) // not on top: the cursor stays
	if owner.top != top {
		t.Errorf("freeing a window below the top moved the cursor %d -> %d", top, owner.top)
	}
	if _, _, ok := peer.Lookup(1); ok {
		t.Error("Lookup of a freed region succeeded")
	}
	owner.Free(3) // the top: rewinds past both
	if owner.top != arenaData || len(owner.live) != 0 {
		t.Errorf("after freeing every window: top %d, %d live; want %d, 0", owner.top, len(owner.live), arenaData)
	}
	c, _, ok := owner.Alloc(5, 200)
	if !ok || &c[0] != &a[0] {
		t.Fatal("Alloc after a full rewind did not reuse the first window's bytes")
	}
	if !bytes.Equal(c, make([]byte, 200)) {
		t.Error("a window handed out again over dirty bytes is not zeroed")
	}
}

// TestArenaRejectsCorruptSlot fills a slot the way a corrupt owner could
// and requires the peer's Lookup to read it as unpublished rather than
// hand out bytes outside the data area.
func TestArenaRejectsCorruptSlot(t *testing.T) {
	owner, peer := mapArenaTwice(t)
	if _, _, ok := owner.Alloc(2, 64); !ok {
		t.Fatal("Alloc failed")
	}
	s := owner.slot(2)
	for _, bad := range []struct{ off, n uint64 }{
		{0, 64},                      // the header
		{arenaData + 1, 64},          // misaligned
		{arenaData, ArenaSize},       // past the end
		{ArenaSize - 64, 1 << 40},    // length overflow
		{arenaData + 64, ^uint64(0)}, // wraps
	} {
		atomic.StoreUint64(owner.word(s+slotOffset), bad.off)
		atomic.StoreUint64(owner.word(s+slotLen), bad.n)
		if _, _, ok := peer.Lookup(2); ok {
			t.Errorf("Lookup accepted offset %d length %d", bad.off, bad.n)
		}
	}
}

// TestOpenDirResetsOwnArenaTable reopens arena files an earlier job left
// in a directory: the owner's own table starts empty and its windows come
// back zeroed, while a peer's table is left for the peer to reset.
func TestOpenDirResetsOwnArenaTable(t *testing.T) {
	dir := t.TempDir()
	first, err := openDirArenas(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf, _, _ := first[0].Alloc(1, 64)
	copy(buf, "stale")
	if _, _, ok := first[1].Alloc(1, 64); !ok {
		t.Fatal("Alloc in rank 1's arena failed")
	}
	again, err := openDirArenas(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := again[0].Lookup(1); ok {
		t.Error("own arena still publishes a window from the earlier job")
	}
	if _, _, ok := again[1].Lookup(1); !ok {
		t.Error("opening reset a peer's table")
	}
	fresh, _, ok := again[0].Alloc(1, 64)
	if !ok || !bytes.Equal(fresh, make([]byte, 64)) {
		t.Errorf("window over the earlier job's bytes is not zeroed: %q", fresh[:5])
	}
}

// TestNotifyEntryRoundTrip checks that the notification of an origin-side
// copy rides the compact entry and decodes to the frame that was sent.
func TestNotifyEntryRoundTrip(t *testing.T) {
	sent := wire.Frame{Kind: wire.KindNotify, Origin: 0, Target: 1, RegionID: 7,
		Offset: 4096, Operand: 1024, Compare: 1, Imm: 0xbeef, ImmValid: true}
	if !compactNotify(&sent, 0, 1) {
		t.Fatal("a notification does not take the compact entry")
	}
	e := make([]byte, EntrySize)
	encNotify(e, &sent)
	var got wire.Frame
	decNotify(e, 0, 1, &got)
	if got.Kind != sent.Kind || got.Origin != sent.Origin || got.Target != sent.Target ||
		got.RegionID != sent.RegionID || got.Offset != sent.Offset || got.Operand != sent.Operand ||
		got.Compare != sent.Compare || got.Imm != sent.Imm || !got.ImmValid {
		t.Errorf("decoded %+v, sent %+v", got, sent)
	}
	if withData := (wire.Frame{Kind: wire.KindNotify, Origin: 0, Target: 1, ImmValid: true, Data: []byte{1}}); compactNotify(&withData, 0, 1) {
		t.Error("a notification with payload bytes took the compact entry")
	}
}

// TestMapFDsConsumesOnError hands MapFDs a map that lacks rank 1's arena:
// it must fail, and close every file in the map, the ones it mapped and
// the ones it had not reached alike.
func TestMapFDsConsumesOnError(t *testing.T) {
	dir := t.TempDir()
	seg, err := CreateSegmentFile(dir, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	arena, err := CreateArenaFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	fds := map[int]*os.File{1: seg, ArenaKey(0): arena}
	if _, _, err := MapFDs(fds, 0, 2); err == nil || !strings.Contains(err.Error(), "no arena fd for rank 1") {
		t.Fatalf("MapFDs without rank 1's arena: %v", err)
	}
	for key, f := range fds {
		if err := f.Close(); !errors.Is(err, os.ErrClosed) {
			t.Errorf("fd map key %d left open (Close: %v)", key, err)
		}
	}
}
