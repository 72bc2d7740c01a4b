package wire

import (
	"errors"
	"reflect"
	"testing"
)

func sampleFrames() []Frame {
	return []Frame{
		{Kind: KindPut, Origin: 3, Target: 7, RegionID: 2, Offset: 4096,
			WireSize: 128, Data: []byte("hello, remote memory")},
		{Kind: KindPut, Origin: 7, Target: 3, RegionID: 2, Offset: 0,
			WireSize: 8, Data: []byte("12345678"), OpID: 9, Imm: 1, ImmValid: true},
		{Kind: KindNotify, Origin: 1, Target: 0, RegionID: 5, Offset: 64,
			Imm: 0xcafe0001, ImmValid: true, NotifyBack: true, Data: []byte{1, 2, 3}},
		{Kind: KindGetReq, Origin: 0, Target: 1, RegionID: 9, Offset: 1 << 20,
			WireSize: 16, OpID: 7777},
		{Kind: KindGetResp, Origin: 1, Target: 0, OpID: 7777, Data: make([]byte, 512)},
		{Kind: KindAtomic, Origin: 2, Target: 3, RegionID: 1, Offset: 8,
			AtomicOp: 2, Operand: 123456789, Compare: 987654321, OpID: 5},
		{Kind: KindAccum, Origin: 2, Target: 3, RegionID: 1, Offset: 16,
			AccumOp: 1, Data: []byte{0, 0, 0, 1}},
		{Kind: KindAck, Origin: 3, Target: 2, OpID: 5, Operand: 99},
		{Kind: KindAck, Origin: 3, Target: 2, Data: AppendAckPair(AppendAckPair(nil, 5, 99), 6, 0)}, // a batch of two
		{Kind: KindCtrl, Origin: 0, Target: 1, MsgClass: 22, WireSize: 16,
			OpID: 3, Operand: 1 << 62, Compare: ^uint64(0)}, // message header words: {3, 1<<62, -1}
		{Kind: KindData, Origin: 0, Target: 1, MsgClass: 13, OpID: 7, Operand: 2, Data: []byte("body"), ChargeCopy: true},
		{Kind: KindNotify, Origin: 1, Target: 0, RegionID: 5, Offset: 64, Operand: 17, Imm: 0xcafe0003, ImmValid: true},
		{Kind: KindAccum, Origin: 2, Target: 3, RegionID: 1, Offset: 24, OpID: 6,
			AccumOp: 0, WireSize: 8, Imm: 4, ImmValid: true, Data: []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}}, // notified accumulate
		{Kind: KindHello, Origin: 4, Operand: 8, Compare: Version, Strs: []string{"127.0.0.1:4242"}},
		{Kind: KindRoster, Strs: []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}},
		{Kind: KindReady, Origin: 2},
		{Kind: KindGo},
		{Kind: KindBye, Origin: 3},
		{Kind: KindBeat, Origin: 3},
		{Kind: KindRejoin, Origin: 2, Operand: 3, Compare: Version, Gen: 1, Strs: []string{"127.0.0.1:4243"}},
		{Kind: KindPut, Origin: 0, Target: 1, RegionID: 3, OpID: 12, Imm: 0x00010007, ImmValid: true}, // pure notification: no data
		{Kind: KindGetResp, Origin: 1, Target: 0, OpID: 7778, Operand: 4, WireSize: 4, RegionID: 9, Offset: 64,
			Imm: 0xcafe0002, ImmValid: true, NotifyBack: true, Data: []byte{9, 8, 7, 6}}, // deferred-notify get response
		{Kind: KindCtrl, Origin: 1, Target: 0, MsgClass: 1, WireSize: 16, OpID: 1}, // one-word header: barrier release {1}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, want := range sampleFrames() {
		b := Append(nil, &want)
		var got Frame
		if err := Decode(b, &got); err != nil {
			t.Fatalf("Decode(%s): %v", want.Kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip mismatch for %s:\n got %+v\nwant %+v", want.Kind, got, want)
		}
	}
}

// Every strict prefix of a valid frame must be rejected, and never panic.
func TestTruncationRejected(t *testing.T) {
	for _, fr := range sampleFrames() {
		b := Append(nil, &fr)
		for n := 0; n < len(b); n++ {
			var got Frame
			if err := Decode(b[:n], &got); err == nil {
				t.Fatalf("Decode accepted %d-byte prefix of %d-byte %s frame", n, len(b), fr.Kind)
			}
		}
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	fr := Frame{Kind: KindAck, Origin: 1, Target: 0, OpID: 3}
	b := append(Append(nil, &fr), 0x00)
	var got Frame
	if err := Decode(b, &got); err == nil {
		t.Fatal("Decode accepted frame with trailing garbage")
	}
}

// Any other version stamp is refused, the previous one (v5, which would
// read a batched ack as the ack of op 0) included.
func TestBadVersionRejected(t *testing.T) {
	fr := Frame{Kind: KindCtrl, Origin: 1, Target: 0, MsgClass: 1}
	for _, v := range []byte{Version - 1, Version + 1} {
		b := Append(nil, &fr)
		b[0] = v
		var got Frame
		if err := Decode(b, &got); !errors.Is(err, ErrVersion) {
			t.Fatalf("Decode(v%d frame) = %v, want ErrVersion", v, err)
		}
	}
}

// An ack batch is whole AckPairLen-byte pairs, read back in order; one
// with a torn last pair is refused.
func TestAckBatch(t *testing.T) {
	var data []byte
	for i := uint64(1); i <= 3; i++ {
		data = AppendAckPair(data, 100+i, 7*i)
	}
	b := Append(nil, &Frame{Kind: KindAck, Origin: 1, Target: 0, Data: data})
	var got Frame
	if err := Decode(b, &got); err != nil || len(got.Data) != 3*AckPairLen {
		t.Fatalf("Decode(batch of 3) = %v, %d data bytes", err, len(got.Data))
	}
	for i := 0; i < 3; i++ {
		if id, v := AckPair(got.Data, i); id != uint64(101+i) || v != uint64(7*(i+1)) {
			t.Errorf("pair %d = (%d, %d)", i, id, v)
		}
	}
	for cut := 1; cut < AckPairLen; cut++ {
		torn := Append(nil, &Frame{Kind: KindAck, Origin: 1, Target: 0, Data: data[:len(data)-cut]})
		if err := Decode(torn, &got); err == nil {
			t.Errorf("Decode accepted a batch %d bytes short of whole pairs", cut)
		}
	}
}

// v4's link ack and nack were kinds 10 and 11; v3's region announcements
// were kinds 16 (reg) and 17 (dereg). The numbers are retired, not
// reassigned: Decode refuses them, Append refuses to produce them, and the
// kinds after them keep their values.
func TestRetiredKindsRejected(t *testing.T) {
	if KindNotify != 9 || KindHello != 12 || KindGo != 15 || KindBye != 18 {
		t.Fatalf("kind numbering moved: notify=%d hello=%d go=%d bye=%d", KindNotify, KindHello, KindGo, KindBye)
	}
	fr := Frame{Kind: KindAck, Origin: 1, Target: 0}
	b := Append(nil, &fr)
	for _, k := range []byte{10, 11, 16, 17} {
		b[1] = k
		var got Frame
		if err := Decode(b, &got); err == nil {
			t.Errorf("Decode accepted retired kind byte %d", k)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Append encoded retired kind %d", k)
				}
			}()
			Append(nil, &Frame{Kind: Kind(k)})
		}()
	}
}

func TestBadKindAndFlagsRejected(t *testing.T) {
	fr := Frame{Kind: KindAck, Origin: 1, Target: 0}
	b := Append(nil, &fr)
	b[1] = byte(kindCount)
	var got Frame
	if err := Decode(b, &got); err == nil {
		t.Fatal("Decode accepted unknown kind")
	}
	b[1] = byte(KindAck)
	for _, fl := range []byte{0xff, 1 << 3} { // 1<<3 was v4's sequenced flag
		b[2] = fl
		if err := Decode(b, &got); err == nil {
			t.Fatalf("Decode accepted unknown flag bits %#x", fl)
		}
	}
}

// A length prefix pointing far beyond the buffer must be rejected before
// any allocation is attempted.
func TestOversizedSectionRejected(t *testing.T) {
	fr := Frame{Kind: KindPut, Origin: 0, Target: 1, Data: []byte("x")}
	b := Append(nil, &fr)
	// The data-length u32 sits right after the fixed header.
	dataLenOff := fixedHeaderLen
	b[dataLenOff] = 0xff
	b[dataLenOff+1] = 0xff
	b[dataLenOff+2] = 0xff
	b[dataLenOff+3] = 0xff
	var got Frame
	if err := Decode(b, &got); err == nil {
		t.Fatal("Decode accepted oversized data length")
	}
}
