package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
)

// chunkReader yields its backing bytes in caller-chosen chunk sizes, so
// tests can split a coalesced stream at arbitrary byte boundaries.
type chunkReader struct {
	b      []byte
	splits []int // chunk sizes, cycled; 0 entries mean 1 byte
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	n := len(c.b)
	if len(c.splits) > 0 {
		s := c.splits[0]
		c.splits = c.splits[1:]
		if s < 1 {
			s = 1
		}
		if s < n {
			n = s
		}
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, c.b[:n])
	c.b = c.b[n:]
	return n, nil
}

// drainFramer parses every remaining frame out of r through f, returning
// decoded frames and the number of Fill calls (syscall equivalents).
func drainFramer(t *testing.T, f *Framer, r io.Reader) ([]Frame, int) {
	t.Helper()
	var out []Frame
	fills := 0
	for {
		body, err := f.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if body == nil {
			_, err := f.Fill(r)
			if err == io.EOF {
				if f.Buffered() != 0 {
					t.Fatalf("EOF with %d unconsumed bytes", f.Buffered())
				}
				return out, fills
			}
			if err != nil {
				t.Fatalf("Fill: %v", err)
			}
			fills++
			continue
		}
		var fr Frame
		if err := Decode(body, &fr); err != nil {
			t.Fatalf("Decode: %v", err)
		}
		// The decoded sections alias the framer buffer: copy out, as the
		// mesh's rx dispatch contract requires of real consumers.
		fr.Data = append([]byte(nil), fr.Data...)
		out = append(out, fr)
	}
}

// TestFramerAllSplits coalesces every sample frame into one stream and
// re-parses it with the stream split at every single byte boundary —
// including mid-length-prefix and mid-header — plus a one-byte-at-a-time
// pass and a single-read pass.
func TestFramerAllSplits(t *testing.T) {
	want := sampleFrames()
	var stream []byte
	for i := range want {
		stream = AppendFrame(stream, &want[i])
	}

	check := func(got []Frame) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("parsed %d frames, want %d", len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("frame %d mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
	}

	// One Read yields the whole stream: every frame from a single fill.
	got, fills := drainFramer(t, NewFramer(len(stream)), bytes.NewReader(stream))
	check(got)
	if fills != 1 {
		t.Fatalf("single-read pass took %d fills, want 1", fills)
	}

	// Split at every boundary: first chunk is stream[:cut], rest follows.
	for cut := 1; cut < len(stream); cut++ {
		got, _ := drainFramer(t, NewFramer(256), &chunkReader{b: stream, splits: []int{cut}})
		check(got)
	}

	// One byte per read: maximal fragmentation.
	got, _ = drainFramer(t, NewFramer(64), &chunkReader{b: stream, splits: []int{}})
	check(got)
}

func TestFramerBadLengthPrefix(t *testing.T) {
	for _, n := range []uint32{0, MaxFrame + 1, 1 << 31} {
		var b [8]byte
		binary.LittleEndian.PutUint32(b[:], n)
		f := NewFramer(64)
		if _, err := f.Fill(bytes.NewReader(b[:])); err != nil {
			t.Fatalf("Fill: %v", err)
		}
		if _, err := f.Next(); err == nil {
			t.Fatalf("Next accepted frame length %d", n)
		}
	}
}

// FuzzFramer checks the framer against a trivial reference parser on
// arbitrary streams and arbitrary read fragmentation: same frames out, no
// panics, errors exactly where the reference sees a bad length prefix.
func FuzzFramer(f *testing.F) {
	var seed []byte
	for _, fr := range sampleFrames() {
		seed = AppendFrame(seed, &fr)
	}
	f.Add(seed, uint64(0))
	f.Add(seed[:len(seed)-3], uint64(12345))
	f.Add([]byte{1, 0, 0, 0, 0xff}, uint64(7))
	f.Add([]byte{0, 0, 0, 0}, uint64(1)) // zero length: framing error

	f.Fuzz(func(t *testing.T, b []byte, rng uint64) {
		// Reference parse: complete frames up to the first bad prefix.
		var want [][]byte
		bad := false
		rest := b
		for len(rest) >= LengthPrefix {
			n := binary.LittleEndian.Uint32(rest)
			if n == 0 || n > MaxFrame {
				bad = true
				break
			}
			if n > 1<<20 {
				t.Skip("oversized claimed frame: growth path, too slow to fuzz")
			}
			if uint64(len(rest)) < uint64(LengthPrefix)+uint64(n) {
				break
			}
			want = append(want, rest[LengthPrefix:LengthPrefix+int(n)])
			rest = rest[LengthPrefix+int(n):]
		}

		// Framer parse under pseudo-random fragmentation.
		var splits []int
		x := rng
		for i := 0; i < 64; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			splits = append(splits, int(x%61)+1)
		}
		fra := NewFramer(97)
		r := &chunkReader{b: b, splits: splits}
		var got [][]byte
		sawErr := false
		for {
			body, err := fra.Next()
			if err != nil {
				sawErr = true
				break
			}
			if body == nil {
				if _, err := fra.Fill(r); err != nil {
					sawErr = err != io.EOF // EOF is stream end, not a framing error
					break
				}
				continue
			}
			got = append(got, append([]byte(nil), body...))
		}
		if sawErr != bad {
			t.Fatalf("framer error=%v, reference bad=%v", sawErr, bad)
		}
		if len(got) != len(want) {
			t.Fatalf("framer yielded %d frames, reference %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d differs", i)
			}
		}
	})
}
