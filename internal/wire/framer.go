package wire

// Stream framing helpers for the batched TCP data plane: AppendFrame
// serializes many frames back to back into one flush buffer (tx
// coalescing), and Framer turns a large buffered read into many decoded
// frames without a per-frame allocation or syscall (rx coalescing).
// AppendHead and Framer.Head split a bulk frame around its data section,
// so a stream can write the data from the sender's buffer and read it
// into its destination without staging it (gather write, placed read).

import (
	"encoding/binary"
	"fmt"
	"io"
)

// LengthPrefix is the size of the uint32 length prefix preceding every
// frame body on a stream.
const LengthPrefix = 4

// AppendFrame serializes fr with its stream length prefix onto dst and
// returns the extended slice. Appending several frames to the same buffer
// yields a byte sequence a Framer parses back into the same frames.
func AppendFrame(dst []byte, fr *Frame) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = Append(dst, fr)
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-LengthPrefix))
	return dst
}

// HeadLen is the stream bytes before a frame's data section: the length
// prefix, the fixed header and the data length.
const HeadLen = LengthPrefix + fixedHeaderLen + 4

// TrailerLen is the stream bytes after the data section of a frame with
// no strings: its string count, zero.
const TrailerLen = 2

// AppendHead serializes what precedes fr's data on the stream onto dst,
// HeadLen bytes: the whole frame's length prefix, the fixed header and
// the data length. The frame is complete once fr.Data and TrailerLen zero
// bytes follow. It panics if fr carries strings, and where Append does.
func AppendHead(dst []byte, fr *Frame) []byte {
	if len(fr.Strs) != 0 {
		panic("wire: AppendHead of a frame with strings")
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(fixedHeaderLen+4+len(fr.Data)+TrailerLen))
	return appendHead(dst, fr)
}

// Framer incrementally splits a byte stream into length-prefixed frame
// bodies. The caller alternates Next (until it reports it needs more
// bytes) with Fill (one Read into the internal buffer), so a single
// syscall can yield many frames; frame bodies returned by Next alias the
// internal buffer and are valid only until the next Fill.
type Framer struct {
	buf  []byte
	r, w int // unconsumed bytes live in buf[r:w]
}

// NewFramer returns a framer whose initial buffer holds size bytes (it
// grows as needed to fit the largest frame seen).
func NewFramer(size int) *Framer {
	if size < 512 {
		size = 512
	}
	return &Framer{buf: make([]byte, size)}
}

// Buffered returns the number of unconsumed bytes currently held.
func (f *Framer) Buffered() int { return f.w - f.r }

// pendingLen returns the next frame's body length if its prefix is
// buffered (-1 otherwise), validating the prefix.
func (f *Framer) pendingLen() (int, error) {
	if f.Buffered() < LengthPrefix {
		return -1, nil
	}
	n := int(binary.LittleEndian.Uint32(f.buf[f.r:]))
	if n == 0 || n > MaxFrame {
		return -1, fmt.Errorf("wire: bad frame length %d", n)
	}
	return n, nil
}

// compact moves the unconsumed bytes to the front of the buffer.
func (f *Framer) compact() {
	if f.r > 0 {
		copy(f.buf, f.buf[f.r:f.w])
		f.w -= f.r
		f.r = 0
	}
}

// Head reports the next frame while it is incomplete: its body length
// and the part of it buffered so far (aliasing the buffer, valid until
// the next Fill). n is -1 when its length prefix is not buffered yet or
// the frame is complete (Next returns it).
func (f *Framer) Head() (n int, body []byte) {
	n, err := f.pendingLen()
	if err != nil || n < 0 || f.Buffered() >= LengthPrefix+n {
		return -1, nil
	}
	return n, f.buf[f.r+LengthPrefix : f.w]
}

// Skip drops the buffered bytes of the incomplete next frame, whose rest
// the caller consumed from the stream itself; the buffer is then empty.
func (f *Framer) Skip() { f.r, f.w = 0, 0 }

// Fill compacts the buffer, grows it if the next frame is known not to
// fit, and performs one Read from r. It returns the byte count read;
// callers count calls to observe frames-per-syscall coalescing.
func (f *Framer) Fill(r io.Reader) (int, error) {
	f.compact()
	if n, err := f.pendingLen(); err != nil {
		return 0, err
	} else if need := LengthPrefix + n; n >= 0 && need > len(f.buf) {
		grown := make([]byte, need)
		copy(grown, f.buf[:f.w])
		f.buf = grown
	} else if f.w == len(f.buf) {
		// Prefix not yet complete but the buffer is full (tiny buffer).
		grown := make([]byte, 2*len(f.buf))
		copy(grown, f.buf[:f.w])
		f.buf = grown
	}
	n, err := r.Read(f.buf[f.w:])
	f.w += n
	if n > 0 {
		return n, nil // bytes first; a terminal error resurfaces next call
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return 0, err
}

// Next returns the next complete frame body, or nil when more bytes are
// needed (call Fill). The returned slice aliases the internal buffer.
func (f *Framer) Next() ([]byte, error) {
	n, err := f.pendingLen()
	if err != nil {
		return nil, err
	}
	if n < 0 || f.Buffered() < LengthPrefix+n {
		return nil, nil
	}
	body := f.buf[f.r+LengthPrefix : f.r+LengthPrefix+n]
	f.r += LengthPrefix + n
	return body, nil
}
