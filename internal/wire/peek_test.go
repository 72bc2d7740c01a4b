package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// FuzzPeekHead checks the head peek against the full decoder on arbitrary
// bytes: a body Decode accepts peeks, from the whole body and from every
// prefix that holds its head, to the same fixed fields and the length of
// its data; a body whose head PeekHead refuses, Decode refuses too.
func FuzzPeekHead(f *testing.F) {
	for _, fr := range sampleFrames() {
		f.Add(Append(nil, &fr))
	}
	f.Add([]byte{Version, byte(KindPut)})
	f.Add(bytes.Repeat([]byte{0xff}, fixedHeaderLen+10))

	f.Fuzz(func(t *testing.T, b []byte) {
		var full, peek Frame
		derr := Decode(b, &full)
		n, perr := PeekHead(b, &peek)
		if derr != nil {
			return
		}
		if perr != nil {
			t.Fatalf("Decode accepts %x, PeekHead refuses it: %v", b, perr)
		}
		if n != len(full.Data) {
			t.Fatalf("PeekHead reads %d bytes of data, Decode %d", n, len(full.Data))
		}
		full.Data, full.Strs = nil, nil
		if !reflect.DeepEqual(peek, full) {
			t.Fatalf("PeekHead %+v, Decode %+v", peek, full)
		}
		for k := HeadLen - LengthPrefix; k < len(b); k++ {
			var pre Frame
			if m, err := PeekHead(b[:k], &pre); err != nil || m != n || !reflect.DeepEqual(pre, peek) {
				t.Fatalf("PeekHead of the first %d bytes: %+v, %d, %v; of all: %+v, %d", k, pre, m, err, peek, n)
			}
		}
	})
}

// TestBulkFrameSplit writes a bulk frame the way a gather write does
// (AppendHead, the data, a zero trailer) and reads it the way a placed read
// does: the framer's Head exposes the frame while its body is incomplete,
// a read of the head alone leaves Next waiting, and Skip drops the frame once
// the caller consumed its rest itself. The next frame then parses.
func TestBulkFrameSplit(t *testing.T) {
	big := Frame{Kind: KindPut, Origin: 1, Target: 2, RegionID: 3, Offset: 64, OpID: 5,
		Imm: 6, ImmValid: true, WireSize: 5000, Data: bytes.Repeat([]byte{0xab}, 5000)}
	stream := AppendHead(nil, &big)
	if len(stream) != HeadLen {
		t.Fatalf("AppendHead wrote %d bytes, want HeadLen %d", len(stream), HeadLen)
	}
	stream = append(append(stream, big.Data...), make([]byte, TrailerLen)...)
	if want := AppendFrame(nil, &big); !bytes.Equal(stream, want) {
		t.Fatal("head, data and trailer differ from AppendFrame's encoding")
	}
	small := Frame{Kind: KindAck, Origin: 2, Target: 1, OpID: 5}
	stream = AppendFrame(stream, &small)

	fram := NewFramer(1024)
	r := bytes.NewReader(stream)
	if n, err := fram.Fill(&io.LimitedReader{R: r, N: HeadLen}); n != HeadLen || err != nil {
		t.Fatalf("Fill of HeadLen bytes read %d, %v", n, err)
	}
	if body, err := fram.Next(); body != nil || err != nil {
		t.Fatalf("Next on a bare head: %d bytes, %v", len(body), err)
	}
	n, head := fram.Head()
	if n != HeadLen-LengthPrefix+len(big.Data)+TrailerLen || len(head) != HeadLen-LengthPrefix {
		t.Fatalf("Head: body %d, %d buffered", n, len(head))
	}
	var fr Frame
	if size, err := PeekHead(head, &fr); err != nil || size != len(big.Data) || fr.OpID != 5 || fr.Kind != KindPut {
		t.Fatalf("PeekHead of the head: %d, %v, %+v", size, err, fr)
	}
	rest := make([]byte, len(big.Data))
	if _, err := r.Read(rest); err != nil {
		t.Fatal(err)
	}
	trailer := make([]byte, TrailerLen)
	if _, err := r.Read(trailer); err != nil || CheckTrailer(trailer) != nil {
		t.Fatalf("trailer %x: %v", trailer, CheckTrailer(trailer))
	}
	fram.Skip()
	got, fills := drainFramer(t, fram, r)
	if len(got) != 1 || got[0].Kind != KindAck || got[0].OpID != 5 || fills == 0 {
		t.Fatalf("after Skip: %d frames (%+v), %d fills", len(got), got, fills)
	}
	if CheckTrailer([]byte{1, 0}) != ErrTruncated {
		t.Error("CheckTrailer accepts a string count with no strings")
	}
}
