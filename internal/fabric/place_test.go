package fabric

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/exec"
	"repro/internal/wire"
)

// stubLink is a Link with no peer behind it: it keeps the callbacks Serve
// installs and records what the fabric sends. Its place callback ends the
// read as a link's does, with readEnd(0).
type stubLink struct {
	place    func(fr *wire.Frame, size int, rest func(dst []byte) error) (bool, error)
	readEnd  func(from int)
	peerDown func(rank int, err error)
	acks     atomic.Int64  // ack frames SendReply carried
	lastAck  atomic.Uint64 // the last one's OpID
	sent     []uint64      // the wire ID of each op Send carried
	pairs    [][2]uint64   // every (ID, value) those ack frames carried, in order
}

func (l *stubLink) Self() int { return 1 }
func (l *stubLink) N() int    { return 2 }
func (l *stubLink) Send(_ int, fr *wire.Frame) error {
	l.sent = append(l.sent, fr.OpID)
	return nil
}
func (l *stubLink) Serve(_ func(int, *wire.Frame), place func(*wire.Frame, int, func([]byte) error) (bool, error),
	readEnd func(int), peerDown func(int, error)) {
	l.place = func(fr *wire.Frame, size int, rest func([]byte) error) (bool, error) {
		ok, err := place(fr, size, rest)
		readEnd(0)
		return ok, err
	}
	l.readEnd, l.peerDown = readEnd, peerDown
}
func (l *stubLink) SendReply(_ int, fr *wire.Frame) error {
	if fr.Kind != wire.KindAck {
		return nil
	}
	l.acks.Add(1)
	l.lastAck.Store(fr.OpID)
	if len(fr.Data) == 0 {
		l.pairs = append(l.pairs, [2]uint64{fr.OpID, fr.Operand})
	}
	for i := 0; i < len(fr.Data)/wire.AckPairLen; i++ {
		id, v := wire.AckPair(fr.Data, i)
		l.pairs = append(l.pairs, [2]uint64{id, v})
	}
	return nil
}

// TestPlaceFrame offers bulk puts to a distributed fabric's placement
// callback as a link would. One aimed in bounds at a live window of this
// rank lands there (the buffered head, then what rest reads), and is
// delivered as placed: its notification reaches the region's sink and
// its ack leaves. Every other is declined before rest is called and
// before the window changes: another rank's, an unknown or freed region,
// past the window's end, and a closed NIC.
func TestPlaceFrame(t *testing.T) {
	const size = 96 << 10
	link := &stubLink{}
	f := NewDistributed(exec.NewDistEnv(1, 2), DefaultConfig(2), link, nil)
	nic := f.nics[1]
	reg := nic.RegisterWindow(size + 64)
	freed := nic.RegisterWindow(size)
	nic.Deregister(freed)
	sink := sinkOn(reg)

	head := bytes.Repeat([]byte{0x11}, 1000)
	var rests int
	rest := func(dst []byte) error {
		rests++
		for i := range dst {
			dst[i] = 0x22
		}
		return nil
	}
	put := func(target, region, off int) *wire.Frame {
		return &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: target, RegionID: region, Offset: off,
			OpID: 41, Imm: 9, ImmValid: true, WireSize: size, Data: head}
	}

	for _, c := range []struct {
		name string
		fr   *wire.Frame
	}{
		{"another rank's", put(0, reg.ID, 0)},
		{"unknown region", put(1, 99, 0)},
		{"freed region", put(1, freed.ID, 0)},
		{"past the end", put(1, reg.ID, 65)},
	} {
		if ok, err := link.place(c.fr, size, rest); ok || err != nil {
			t.Errorf("%s put: placed %v, %v; want declined", c.name, ok, err)
		}
	}
	if rests != 0 || link.acks.Load() != 0 || !bytes.Equal(reg.Bytes(), make([]byte, size+64)) {
		t.Fatalf("a declined put touched the window, read its rest or was acked (%d rests, %d acks)", rests, link.acks.Load())
	}

	if ok, err := link.place(put(1, reg.ID, 64), size, rest); !ok || err != nil {
		t.Fatalf("in-bounds put: placed %v, %v; want placed", ok, err)
	}
	want := append(append(make([]byte, 64), head...), bytes.Repeat([]byte{0x22}, size-len(head))...)
	if rests != 1 || !bytes.Equal(reg.Bytes(), want) {
		t.Fatalf("placed put: %d rests, window bytes differ from head then rest", rests)
	}
	if cqe, ok := sink.poll(); !ok || cqe != (CQE{Origin: 0, Imm: 9, Kind: OpPut, RegionID: reg.ID, Offset: 64, Len: size}) {
		t.Fatalf("placed put's notification: %+v, %v", cqe, ok)
	}
	if link.acks.Load() != 1 || link.lastAck.Load() != 41 {
		t.Fatalf("placed put: %d acks, last for op %d; want one for op 41", link.acks.Load(), link.lastAck.Load())
	}

	// Placing a put and delivering one from a buffered frame, each with
	// the ack frame that ends its read, allocate nothing.
	plain := put(1, reg.ID, 0)
	plain.ImmValid = false
	placed := testing.AllocsPerRun(100, func() {
		link.place(plain, size, rest)
		link.pairs = link.pairs[:0]
	})
	whole := *plain
	whole.Data = make([]byte, size)
	framed := testing.AllocsPerRun(100, func() {
		f.ingestFrame(0, &whole)
		link.readEnd(0)
		link.pairs = link.pairs[:0]
	})
	if placed != 0 || framed != 0 {
		t.Errorf("placing a put: %.2f allocs, delivering it from a buffer %.2f; want 0", placed, framed)
	}

	nic.Close()
	if ok, err := link.place(put(1, reg.ID, 0), size, rest); ok || err != nil {
		t.Errorf("put to a closed NIC: placed %v, %v; want declined", ok, err)
	}
}
