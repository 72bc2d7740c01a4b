package fabric

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/wire"
)

// newStubFabric is rank 1 of a 2-rank distributed fabric over a stubLink,
// with a 64-byte window; rank 0 is the peer behind the link.
func newStubFabric() (*Fabric, *stubLink, *MemRegion) {
	link := &stubLink{}
	f := NewDistributed(exec.NewDistEnv(1, 2), DefaultConfig(2), link, nil)
	return f, link, f.nics[1].RegisterWindow(64)
}

// TestAckBatchPerRead delivers frames from the peer as a link's read
// does. The puts, the accumulate and the atomic one read delivers leave
// as exactly one ack frame when the read ends, their pairs in delivery
// order with the atomic's fetched value, and nothing leaves before. A
// read that delivered one put sends today's ack frame, with no data. A
// self-targeted put is acked at once, past the link.
func TestAckBatchPerRead(t *testing.T) {
	f, link, reg := newStubFabric()
	reg.Store64(8, 40)
	put := func(id uint64, off int) *wire.Frame {
		return &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, RegionID: reg.ID, Offset: off,
			OpID: id, WireSize: 8, Data: []byte("12345678")}
	}
	f.ingestFrame(0, put(11, 16))
	f.ingestFrame(0, put(12, 24))
	f.ingestFrame(0, &wire.Frame{Kind: wire.KindAtomic, Origin: 0, Target: 1, RegionID: reg.ID, Offset: 8,
		OpID: 13, Operand: 2, AtomicOp: uint8(AtomicFetchAdd), WireSize: 8})
	acc := make([]byte, 8)
	binary.LittleEndian.PutUint64(acc, math.Float64bits(1.5))
	f.ingestFrame(0, &wire.Frame{Kind: wire.KindAccum, Origin: 0, Target: 1, RegionID: reg.ID, Offset: 32,
		OpID: 14, AccumOp: uint8(AccumSum), WireSize: 8, Data: acc})
	f.ingestFrame(0, put(15, 40))
	if n := link.acks.Load(); n != 0 {
		t.Fatalf("%d ack frames left before the read ended", n)
	}
	link.readEnd(0)
	want := [][2]uint64{{11, 0}, {12, 0}, {13, 40}, {14, 0}, {15, 0}}
	if n := link.acks.Load(); n != 1 || !reflect.DeepEqual(link.pairs, want) {
		t.Fatalf("the read's acks: %d frames carrying %v; want one carrying %v", n, link.pairs, want)
	}
	if got := f.Stats.AckPackets.Load(); got != 5 {
		t.Errorf("AckPackets = %d, want 5: it counts acknowledgements, not frames", got)
	}
	link.readEnd(0)
	if n := link.acks.Load(); n != 1 {
		t.Fatalf("a read that acked nothing sent %d more frames", n-1)
	}

	link.pairs = nil
	f.ingestFrame(0, put(21, 48))
	link.readEnd(0)
	if n, last := link.acks.Load(), link.lastAck.Load(); n != 2 || last != 21 ||
		!reflect.DeepEqual(link.pairs, [][2]uint64{{21, 0}}) {
		t.Fatalf("a read of one put: %d frames, last OpID %d, pairs %v; want a plain ack of op 21", n, last, link.pairs)
	}

	op := f.nics[1].Put(nil, 1, reg.ID, 56, []byte("selfself"), Imm{})
	if !op.Done() || link.acks.Load() != 2 || len(link.sent) != 0 {
		t.Fatalf("self-targeted put: done %v, %d ack frames, %d sends; want acked at once past the link",
			op.Done(), link.acks.Load(), len(link.sent))
	}
}

// TestAckBatchCompletesOps is the origin's side: one batched ack frame
// completes every op it names, in order, an atomic with its fetched
// value; an ID it names twice, or one never registered, completes
// nothing more. A torn batch never reaches the fabric, because Decode
// refuses it; handed over anyway, its whole pairs complete and the torn
// tail is ignored.
func TestAckBatchCompletesOps(t *testing.T) {
	f, link, _ := newStubFabric()
	nic := f.nics[1]
	var ops []*Op
	for i := 0; i < 4; i++ {
		ops = append(ops, nic.Put(nil, 0, 0, 8*i, []byte("abcdefgh"), Imm{}))
	}
	ops = append(ops, nic.Atomic(nil, 0, 0, 0, AtomicFetchAdd, 1, 0, Imm{}))
	if len(link.sent) != 5 || nic.Pending(0) != 5 {
		t.Fatalf("%d sends, %d pending; want 5 and 5", len(link.sent), nic.Pending(0))
	}
	var data []byte
	for i, id := range link.sent[:3] {
		data = wire.AppendAckPair(data, id, uint64(i))
	}
	data = wire.AppendAckPair(data, link.sent[0], 0) // named twice
	data = wire.AppendAckPair(data, 9999, 0)         // never registered
	data = wire.AppendAckPair(data, link.sent[4], 77)
	batch := &wire.Frame{Kind: wire.KindAck, Origin: 0, Target: 1, Data: data}
	f.ingestFrame(0, batch)
	for i, op := range ops {
		if want := i != 3; op.Done() != want {
			t.Errorf("op %d (id %d): done %v, want %v", i, link.sent[i], op.Done(), want)
		}
	}
	if r := ops[4].Result(); r != 77 {
		t.Errorf("atomic result %d, want 77", r)
	}

	torn := &wire.Frame{Kind: wire.KindAck, Origin: 0, Target: 1,
		Data: append(wire.AppendAckPair(nil, link.sent[3], 0), 1, 2, 3)}
	var dec wire.Frame
	if err := wire.Decode(wire.Append(nil, torn), &dec); err == nil {
		t.Fatal("Decode accepted a torn ack batch")
	}
	f.ingestFrame(0, torn)
	if !ops[3].Done() || nic.Pending(0) != 0 {
		t.Fatalf("the torn batch's whole pair: done %v, %d pending", ops[3].Done(), nic.Pending(0))
	}
}

// TestAckBatchPeerDiesWithAcksHeld: a target that delivered an origin's
// puts dies with their acks still held (its read never ended). The
// origin's ops fail with ErrPeerFailed once its link convicts the target,
// and acks that surface after the conviction complete nothing.
func TestAckBatchPeerDiesWithAcksHeld(t *testing.T) {
	origin, olink, _ := newStubFabric()
	target, tlink, reg := newStubFabric()
	var ops []*Op
	for i := 0; i < 3; i++ {
		ops = append(ops, origin.nics[1].Put(nil, 0, reg.ID, 8*i, []byte("abcdefgh"), Imm{}))
	}
	for i, id := range olink.sent {
		target.ingestFrame(0, &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, RegionID: reg.ID,
			Offset: 8 * i, OpID: id, WireSize: 8, Data: []byte("abcdefgh")})
	}
	if tlink.acks.Load() != 0 {
		t.Fatal("the target sent acks before its read ended")
	}

	olink.peerDown(0, errors.New("heartbeat stalled"))
	for i, op := range ops {
		if !op.Done() || !errors.Is(op.Err(), ErrPeerFailed) {
			t.Errorf("op %d: done %v, err %v; want ErrPeerFailed", i, op.Done(), op.Err())
		}
	}

	tlink.readEnd(0) // the corpse's held acks, had they left
	var data []byte
	for _, p := range tlink.pairs {
		data = wire.AppendAckPair(data, p[0], p[1])
	}
	origin.ingestFrame(0, &wire.Frame{Kind: wire.KindAck, Origin: 0, Target: 1, Data: data})
	for i, op := range ops {
		if !errors.Is(op.Err(), ErrPeerFailed) {
			t.Errorf("op %d after the late acks: err %v", i, op.Err())
		}
	}
	if n := origin.nics[1].Pending(0); n != 0 {
		t.Errorf("%d ops pending after the conviction", n)
	}
}

// TestNetSendZeroAlloc pins a steady-state link round at 0 allocations:
// a detached put the rank sends (netSend) and the ack frame that completes
// it (completeAcks), and a put delivered from the peer with the ack frame
// its read ends with (readEnd). Not under the race detector (raceEnabled).
func TestNetSendZeroAlloc(t *testing.T) {
	f, link, reg := newStubFabric()
	nic := f.nics[1]
	buf := make([]byte, 8)
	in := &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, RegionID: reg.ID, WireSize: 8, Data: buf}
	ack := &wire.Frame{Kind: wire.KindAck, Origin: 0, Target: 1}
	round := func() {
		nic.Put(nil, 0, 0, 0, buf, Imm{}).Detach()
		ack.OpID = link.sent[len(link.sent)-1]
		f.ingestFrame(0, ack)
		f.ingestFrame(0, in)
		link.readEnd(0)
		link.sent, link.pairs = link.sent[:0], link.pairs[:0]
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 && !raceEnabled {
		t.Errorf("a link put and ack each way: %.2f allocs, want 0", avg)
	}
	if n := nic.Pending(0); n != 0 {
		t.Fatalf("%d ops pending: the acks did not complete them", n)
	}
}

// FuzzCompleteAcks hands arbitrary bytes to the origin as an ack batch's
// data section: completeAcks never panics, and completes exactly the
// registered ops whose IDs the whole pairs name.
func FuzzCompleteAcks(f *testing.F) {
	f.Add([]byte{})
	f.Add(wire.AppendAckPair(wire.AppendAckPair(nil, 1, 0), 3, 9))
	f.Add(append(wire.AppendAckPair(nil, 2, 0), 4, 0, 0))
	f.Add(wire.AppendAckPair(wire.AppendAckPair(nil, 5, 0), 5, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		fab, link, _ := newStubFabric()
		var ops []*Op
		for i := 0; i < 6; i++ {
			ops = append(ops, fab.nics[1].Put(nil, 0, 0, 0, []byte("x"), Imm{}))
		}
		named := map[uint64]bool{}
		for i := 0; i < len(data)/wire.AckPairLen; i++ {
			id, _ := wire.AckPair(data, i)
			named[id] = true
		}
		fab.completeAcks(&wire.Frame{Kind: wire.KindAck, Origin: 0, Target: 1, Data: data})
		for i, op := range ops {
			if id := link.sent[i]; op.Done() != named[id] {
				t.Fatalf("op %d: done %v, named %v", id, op.Done(), named[id])
			}
		}
	})
}
