package wire

import (
	"errors"
	"reflect"
	"testing"
)

func sampleFrames() []Frame {
	return []Frame{
		{Kind: KindPut, Origin: 3, Target: 7, RegionID: 2, Offset: 4096,
			WireSize: 128, Data: []byte("hello, remote memory"), Rel: true, Seq: 42, Csum: 0xdeadbeef},
		{Kind: KindPut, Origin: 7, Target: 3, RegionID: 2, Offset: 0,
			WireSize: 8, Data: []byte("12345678"), Rel: true, Seq: 9, Csum: 1},
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
		{Kind: KindCtrl, Origin: 0, Target: 1, MsgClass: 12, Payload: []byte("gob-bytes"), ChargeCopy: true},
		{Kind: KindData, Origin: 0, Target: 1, MsgClass: 13, Payload: []byte("hdr"), Data: []byte("body")},
		{Kind: KindLinkAck, Origin: 1, Target: 0, Operand: 17},
		{Kind: KindLinkNack, Origin: 1, Target: 0, Operand: 17, Compare: 19},
		{Kind: KindHello, Origin: 4, Operand: 8, Compare: Version, Strs: []string{"127.0.0.1:4242"}},
		{Kind: KindRoster, Strs: []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}},
		{Kind: KindReady, Origin: 2},
		{Kind: KindGo},
		{Kind: KindReg, Origin: 1, RegionID: 4, Operand: 65536},
		{Kind: KindDereg, Origin: 1, RegionID: 4},
		{Kind: KindBye, Origin: 3},
		{Kind: KindBeat, Origin: 3},
		{Kind: KindRejoin, Origin: 2, Operand: 3, Compare: Version, Seq: 1, Strs: []string{"127.0.0.1:4243"}},
		{Kind: KindPut, Origin: 0, Target: 1, RegionID: 3, OpID: 12, Imm: 0x00010007, ImmValid: true}, // pure notification: no data
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

func TestBadVersionRejected(t *testing.T) {
	fr := Frame{Kind: KindAck, Origin: 1, Target: 0}
	b := Append(nil, &fr)
	b[0] = Version + 1
	var got Frame
	err := Decode(b, &got)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("Decode = %v, want ErrVersion", err)
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
	b[2] = 0xff
	if err := Decode(b, &got); err == nil {
		t.Fatal("Decode accepted unknown flag bits")
	}
}

// A length prefix pointing far beyond the buffer must be rejected before
// any allocation is attempted.
func TestOversizedSectionRejected(t *testing.T) {
	fr := Frame{Kind: KindPut, Origin: 0, Target: 1, Data: []byte("x")}
	b := Append(nil, &fr)
	// The data-length u32 sits right after the (empty) payload section.
	dataLenOff := fixedHeaderLen + 4
	b[dataLenOff] = 0xff
	b[dataLenOff+1] = 0xff
	b[dataLenOff+2] = 0xff
	b[dataLenOff+3] = 0xff
	var got Frame
	if err := Decode(b, &got); err == nil {
		t.Fatal("Decode accepted oversized data length")
	}
}

func TestPayloadCodec(t *testing.T) {
	type hdr struct {
		Tag, Count int
	}
	RegisterPayload(hdr{})

	cases := []any{nil, int(42), "roster", true, hdr{Tag: 9, Count: 3}}
	for _, want := range cases {
		b, err := EncodePayload(want)
		if err != nil {
			t.Fatalf("EncodePayload(%v): %v", want, err)
		}
		got, err := DecodePayload(b)
		if err != nil {
			t.Fatalf("DecodePayload(%v): %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("payload round trip: got %v (%T), want %v (%T)", got, got, want, want)
		}
	}

	if _, err := DecodePayload([]byte("not gob")); err == nil {
		t.Fatal("DecodePayload accepted garbage")
	}
}
