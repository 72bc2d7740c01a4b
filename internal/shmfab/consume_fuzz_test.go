package shmfab

import (
	"sync/atomic"
	"testing"

	"repro/internal/wire"
)

// FuzzConsume feeds an arbitrary 64-byte entry, with arbitrary bytes at
// the start of the bulk region (where the consumer's cursor is), to
// Mesh.consume, as a corrupt or dying peer could publish them. consume
// must never panic: it either retires the entry (delivering a frame, or
// buffering a fragment) or fails the peer, and a failed peer delivers
// nothing.
func FuzzConsume(f *testing.F) {
	data := []byte("payload bytes beyond the inline forty-byte capacity of a ring entry")
	put := &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, RegionID: 2, Offset: 8,
		WireSize: len(data), OpID: 9, Imm: 5, ImmValid: true, Data: data}
	enc := wire.Append(nil, put)
	seed := func(bulk []byte, fill func(e []byte)) {
		e := make([]byte, EntrySize)
		fill(e)
		f.Add(e, bulk)
	}
	seed(nil, func(e []byte) { encPutInline(e, &wire.Frame{OpID: 1, Data: data[:8]}) })
	seed(data, func(e []byte) { encPutBulk(e, put, 0) })
	seed(nil, func(e []byte) { encAck(e, &wire.Frame{OpID: 4, Operand: 7}) })
	seed(nil, func(e []byte) { encNotify(e, &wire.Frame{RegionID: 2, Offset: 8, Operand: 64, Imm: 5}) })
	seed(enc, func(e []byte) { encFrame(e, 0, len(enc)) })
	seed(enc, func(e []byte) { encFrag(e, true, 0, len(enc), len(enc)) })
	seed(enc[:16], func(e []byte) { encFrag(e, true, 0, 16, len(enc)) })
	seed(enc[:16], func(e []byte) { encFrag(e, false, 0, 16, len(enc)) })

	seg := NewHeapSegment(0, 1)
	m, err := Attach(Config{Self: 1, N: 2, Segments: []*Segment{seg, nil}})
	if err != nil {
		f.Fatal(err)
	}
	delivered := 0
	m.rx = func(int, *wire.Frame) { delivered++ }
	p := m.peers[0]
	r := p.cons.r
	f.Fuzz(func(t *testing.T, entry, bulk []byte) {
		// A fresh consumer over a one-entry ring, cursors at zero.
		for _, w := range []*uint64{r.head, r.bulkHead, r.bulkTail} {
			atomic.StoreUint64(w, 0)
		}
		atomic.StoreUint64(r.tail, 1)
		p.cons = newConsumer(r)
		p.down.Store(false)
		p.fragBuf, p.fragFill = nil, 0
		e := r.entries[:EntrySize]
		clear(e)
		copy(e, entry)
		copy(r.bulk[:min(len(bulk), 1<<16)], bulk)
		delivered = 0

		got, ok := p.cons.poll()
		if !ok {
			t.Fatal("a published entry did not poll")
		}
		m.consume(p, got)
		switch {
		case p.down.Load() && delivered != 0:
			t.Fatalf("a failed peer delivered %d frames", delivered)
		case !p.down.Load() && p.cons.head != 1:
			t.Fatalf("entry kind %d neither retired nor refused", e[0])
		}
	})
}
