package fabric

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/exec"
	"repro/internal/wire"
)

// stubLink is a Link with no peer behind it: it keeps the placement
// callback Serve installs and counts the replies delivery sends.
type stubLink struct {
	place   func(fr *wire.Frame, size int, rest func(dst []byte) error) (bool, error)
	acks    atomic.Int64
	lastAck atomic.Uint64
}

func (l *stubLink) Self() int                   { return 1 }
func (l *stubLink) N() int                      { return 2 }
func (l *stubLink) Send(int, *wire.Frame) error { return nil }
func (l *stubLink) Serve(_ func(int, *wire.Frame), place func(*wire.Frame, int, func([]byte) error) (bool, error), _ func(int, error)) {
	l.place = place
}
func (l *stubLink) SendReply(_ int, fr *wire.Frame) error {
	if fr.Kind == wire.KindAck {
		l.acks.Add(1)
		l.lastAck.Store(fr.OpID)
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

	// Placing a put allocates no more than delivering it from a buffered
	// frame does (whose ack's frame netSend allocates, see CHANGES.md).
	plain := put(1, reg.ID, 0)
	plain.ImmValid = false
	placed := testing.AllocsPerRun(100, func() { link.place(plain, size, rest) })
	whole := *plain
	whole.Data = make([]byte, size)
	framed := testing.AllocsPerRun(100, func() { f.ingestFrame(0, &whole) })
	if placed > framed {
		t.Errorf("placing a put: %.2f allocs, delivering it from a buffer %.2f", placed, framed)
	}

	nic.Close()
	if ok, err := link.place(put(1, reg.ID, 0), size, rest); ok || err != nil {
		t.Errorf("put to a closed NIC: placed %v, %v; want declined", ok, err)
	}
}
