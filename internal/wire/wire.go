// Package wire defines the versioned binary frame format the cross-process
// TCP fabric (internal/netfab) puts on the socket between OS processes.
//
// A frame is one fabric packet or one control message (bootstrap handshake,
// liveness beat, clean-shutdown goodbye), serialized as a fixed
// little-endian header followed by two variable-length sections: the raw
// payload bytes and a string table (bootstrap addresses). On the stream
// every frame is preceded by a uint32 length prefix; this package encodes
// and decodes the frame body only.
//
// The format is strict by construction: Decode rejects unknown versions,
// unknown kinds, length fields that overrun the buffer, and trailing
// garbage. It never panics on hostile input (see FuzzDecode).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the wire-protocol version stamped on every frame. Peers with
// mismatched versions refuse to mesh during the bootstrap handshake.
// Version 3 dropped what version 2 had added for a reliability protocol
// layered on the socket (the piggybacked cumulative-ack field and the
// rendezvous kinds) and added the liveness beat. Version 4 dropped the
// self-describing message-header section (a message's three header words
// ride in OpID/Operand/Compare) and the region-announcement kinds.
// Version 5 dropped the last of the link-repair protocol: the payload
// checksum, the sequenced flag and the link ack/nack kinds. The 64-bit
// word the sequence number used is now Gen, carried by hello and rejoin.
// Version 6 added the batched ack: an ack with OpID 0 whose data section
// is packed (op ID, value) pairs, which a version 5 peer would read as
// the ack of op 0.
const Version = 6

// MaxData bounds a frame's raw payload section (64 MiB): larger transfers
// must be chunked by the layer above, and a length prefix beyond it is
// treated as corruption rather than honored as an allocation request.
const MaxData = 1 << 26

// MaxFrame bounds a complete encoded frame on the stream.
const MaxFrame = MaxData + 1<<16

// Limits on the decoded variable sections.
const (
	maxStrs   = 1 << 12 // bootstrap roster entries
	maxStrLen = 1 << 12 // one roster address
)

// Kind discriminates frames. The data-plane kinds are the fabric's packet
// kinds (fabric.pktKind is this type); the control kinds carry the
// bootstrap rendezvous, liveness, and teardown.
type Kind uint8

const (
	KindInvalid Kind = iota

	// Data plane (fabric packets).
	KindPut
	KindGetReq
	KindGetResp
	KindAtomic
	KindAccum
	KindAck
	KindCtrl
	KindData
	KindNotify
	kindRetiredLinkAck  // v4's link-layer ack and nack: the numbers are
	kindRetiredLinkNack // not reused, so a stale kind byte is refused

	// Control plane.
	KindHello        // dialer introduces itself: Origin=rank, Operand=job size, Compare=protocol version, Strs[0]=listener addr
	KindRoster       // root broadcasts the peer listener addresses: Strs[r]=rank r's addr
	KindReady        // peer reports its mesh links are up
	KindGo           // root releases the job
	kindRetiredReg   // v3's region announcements: the numbers are not reused,
	kindRetiredDereg // so a stale kind byte is refused rather than misread
	KindBye          // clean shutdown: the sender finished its rank body
	KindBeat         // liveness: the stream carried nothing else for one beat interval; no fields, consumed by the mesh

	// KindRejoin is the Hello variant a respawned rank sends during a
	// recovery re-bootstrap: same layout as KindHello (Origin=rank,
	// Operand=job size, Compare=protocol version, Strs[0]=listener addr)
	// plus Gen carrying the last world generation the process saw (0 for
	// a fresh respawn). The root admits it into the roster like any other
	// hello but records the rank as a rejoiner for the recovery layer.
	KindRejoin

	kindCount // sentinel
)

// valid reports whether k names a frame kind of this protocol version.
func (k Kind) valid() bool {
	switch k {
	case KindInvalid, kindRetiredLinkAck, kindRetiredLinkNack, kindRetiredReg, kindRetiredDereg:
		return false
	}
	return k < kindCount
}

func (k Kind) String() string {
	switch k {
	case KindPut:
		return "put"
	case KindGetReq:
		return "get-req"
	case KindGetResp:
		return "get-resp"
	case KindAtomic:
		return "atomic"
	case KindAccum:
		return "accum"
	case KindAck:
		return "ack"
	case KindCtrl:
		return "ctrl"
	case KindData:
		return "data"
	case KindNotify:
		return "notify"
	case KindHello:
		return "hello"
	case KindRoster:
		return "roster"
	case KindReady:
		return "ready"
	case KindGo:
		return "go"
	case KindBye:
		return "bye"
	case KindBeat:
		return "beat"
	case KindRejoin:
		return "rejoin"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Frame is the decoded form of one wire frame. Every frame carries Kind,
// Origin and Target; beyond those a kind uses only the fixed fields listed
// here (the rest stay zero). The three 64-bit words OpID, Operand and
// Compare mean something different per kind:
//
//	kind            OpID       Operand        Compare      other fields
//	put             op handle  -              -            RegionID Offset Imm ImmValid WireSize Data
//	get-req         op handle  read length    -            RegionID Offset Imm ImmValid
//	get-resp        op handle  read length    -            WireSize Data; NotifyBack with RegionID Offset Imm ImmValid
//	atomic          op handle  operand        CAS compare  RegionID Offset Imm ImmValid AtomicOp WireSize
//	accum           op handle  -              -            RegionID Offset Imm ImmValid AccumOp WireSize Data
//	ack             op handle  fetched value  -            -; a batch: OpID 0, Data AckPairLen-byte pairs
//	ctrl, data      word 0     word 1         word 2       MsgClass WireSize; data adds ChargeCopy Data
//	notify          -          length         op kind      RegionID Offset Imm ImmValid
//	hello, rejoin   -          job size       Version      Gen (world generation) Strs[0] (listener address)
//	roster          -          generation     -            Strs (one address per rank)
//	ready, go, bye, beat use none.
//
// A message (ctrl/data) is not an op and moves no region bytes, so its
// three header words — ints stored as uint64, sign preserved — take the
// words an op would use.
//
// An ack completes one op, or, as a batch, several: a link's reader acks
// the puts, accumulates and atomics one read delivered from a peer in one
// frame. A batch has OpID 0 and Operand 0, and its Data is the acks in
// delivery order, each AckPairLen bytes: the op handle, then the fetched
// value, little-endian (AppendAckPair, AckPair). Decode refuses a batch
// that is not whole pairs.
type Frame struct {
	Kind     Kind
	Origin   int // sending rank
	Target   int // receiving rank
	RegionID int
	MsgClass int
	WireSize int // modeled wire size of the packet (stats parity with Sim)
	Offset   int

	OpID             uint64 // origin-side op handle, echoed on acks/get responses
	Operand, Compare uint64
	Gen              uint64 // hello/rejoin: world generation
	Imm              uint32 // 4-byte notified-access immediate

	ImmValid   bool
	NotifyBack bool
	ChargeCopy bool

	AtomicOp uint8
	AccumOp  uint8

	Data []byte   // raw payload bytes; aliases the decode input
	Strs []string // bootstrap string table (addresses)
}

const (
	flagImmValid   = 1 << 0
	flagNotifyBack = 1 << 1
	flagChargeCopy = 1 << 2
)

// fixedHeaderLen is the byte length of the fixed portion of a frame.
const fixedHeaderLen = 1 + 1 + 1 + 1 + 1 + // version, kind, flags, aop, accop
	5*4 + // origin, target, regionID, msgClass, wireSize
	5*8 + // offset, opID, operand, compare, gen
	4 // imm

// AckPairLen is the length of one ack in a batch's data section.
const AckPairLen = 16

// AppendAckPair appends the ack of op id with value to a batch's data
// section.
func AppendAckPair(dst []byte, id, value uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, id)
	return binary.LittleEndian.AppendUint64(dst, value)
}

// AckPair returns the i-th ack of a batch's data section.
func AckPair(data []byte, i int) (id, value uint64) {
	p := data[i*AckPairLen : (i+1)*AckPairLen]
	return binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:])
}

// ErrTruncated reports a frame shorter than its length fields claim.
var ErrTruncated = errors.New("wire: truncated frame")

// ErrVersion reports a frame stamped with an unsupported protocol version.
var ErrVersion = errors.New("wire: protocol version mismatch")

// checkRange panics when a frame field cannot be represented on the wire —
// these are programming errors at the sender, never remote input.
func checkRange(name string, v int, max uint64) {
	if v < 0 || uint64(v) > max {
		panic(fmt.Sprintf("wire: frame field %s out of range: %d", name, v))
	}
}

// Append serializes fr onto dst and returns the extended slice. It panics
// if a field is out of the encodable range (sender-side programming error).
func Append(dst []byte, fr *Frame) []byte {
	dst = appendHead(dst, fr)
	if len(fr.Strs) > maxStrs {
		panic(fmt.Sprintf("wire: too many frame strings: %d", len(fr.Strs)))
	}
	dst = append(dst, fr.Data...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(fr.Strs)))
	for _, s := range fr.Strs {
		if len(s) > maxStrLen {
			panic(fmt.Sprintf("wire: frame string too long: %d", len(s)))
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// appendHead serializes what precedes fr's data section: the fixed
// header and the data length.
func appendHead(dst []byte, fr *Frame) []byte {
	if !fr.Kind.valid() {
		panic(fmt.Sprintf("wire: encoding invalid kind %d", fr.Kind))
	}
	checkRange("origin", fr.Origin, 1<<32-1)
	checkRange("target", fr.Target, 1<<32-1)
	checkRange("regionID", fr.RegionID, 1<<32-1)
	checkRange("msgClass", fr.MsgClass, 1<<32-1)
	checkRange("wireSize", fr.WireSize, 1<<32-1)
	checkRange("offset", fr.Offset, 1<<62)
	if len(fr.Data) > MaxData {
		panic(fmt.Sprintf("wire: frame data too large: %d", len(fr.Data)))
	}

	var flags byte
	if fr.ImmValid {
		flags |= flagImmValid
	}
	if fr.NotifyBack {
		flags |= flagNotifyBack
	}
	if fr.ChargeCopy {
		flags |= flagChargeCopy
	}
	dst = append(dst, Version, byte(fr.Kind), flags, fr.AtomicOp, fr.AccumOp)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(fr.Origin))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(fr.Target))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(fr.RegionID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(fr.MsgClass))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(fr.WireSize))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(fr.Offset))
	dst = binary.LittleEndian.AppendUint64(dst, fr.OpID)
	dst = binary.LittleEndian.AppendUint64(dst, fr.Operand)
	dst = binary.LittleEndian.AppendUint64(dst, fr.Compare)
	dst = binary.LittleEndian.AppendUint64(dst, fr.Gen)
	dst = binary.LittleEndian.AppendUint32(dst, fr.Imm)
	return binary.LittleEndian.AppendUint32(dst, uint32(len(fr.Data)))
}

// decodeFixed parses the fixed header portion of a frame body into fr,
// zeroing the variable sections. b must be at least fixedHeaderLen bytes.
func decodeFixed(b []byte, fr *Frame) error {
	if len(b) < fixedHeaderLen {
		return ErrTruncated
	}
	if b[0] != Version {
		return fmt.Errorf("%w: got %d, want %d", ErrVersion, b[0], Version)
	}
	k := Kind(b[1])
	if !k.valid() {
		return fmt.Errorf("wire: unknown frame kind %d", b[1])
	}
	flags := b[2]
	if flags&^(flagImmValid|flagNotifyBack|flagChargeCopy) != 0 {
		return fmt.Errorf("wire: unknown flag bits %#x", flags)
	}
	*fr = Frame{
		Kind:       k,
		AtomicOp:   b[3],
		AccumOp:    b[4],
		ImmValid:   flags&flagImmValid != 0,
		NotifyBack: flags&flagNotifyBack != 0,
		ChargeCopy: flags&flagChargeCopy != 0,
	}
	fr.Origin = int(binary.LittleEndian.Uint32(b[5:]))
	fr.Target = int(binary.LittleEndian.Uint32(b[9:]))
	fr.RegionID = int(binary.LittleEndian.Uint32(b[13:]))
	fr.MsgClass = int(binary.LittleEndian.Uint32(b[17:]))
	fr.WireSize = int(binary.LittleEndian.Uint32(b[21:]))
	off := binary.LittleEndian.Uint64(b[25:])
	if off > 1<<62 {
		return fmt.Errorf("wire: offset out of range: %d", off)
	}
	fr.Offset = int(off)
	fr.OpID = binary.LittleEndian.Uint64(b[33:])
	fr.Operand = binary.LittleEndian.Uint64(b[41:])
	fr.Compare = binary.LittleEndian.Uint64(b[49:])
	fr.Gen = binary.LittleEndian.Uint64(b[57:])
	fr.Imm = binary.LittleEndian.Uint32(b[65:])
	return nil
}

// PeekHead parses the head of a frame body, the part before its data
// section, into fr and returns the data section's length; fr.Data and
// fr.Strs stay nil. b may hold the whole body or only a prefix of at
// least HeadLen-LengthPrefix bytes. It refuses what Decode refuses in
// that prefix, so a body Decode accepts peeks to the same fixed fields
// and len(Data) (FuzzPeekHead).
func PeekHead(b []byte, fr *Frame) (int, error) {
	if err := decodeFixed(b, fr); err != nil {
		return 0, err
	}
	if len(b) < fixedHeaderLen+4 {
		return 0, ErrTruncated
	}
	n := binary.LittleEndian.Uint32(b[fixedHeaderLen:])
	if n > MaxData {
		return 0, fmt.Errorf("wire: section length %d exceeds limit %d", n, MaxData)
	}
	return int(n), nil
}

// Decode parses one frame body into fr. The Data slice aliases b: the
// caller must copy it out before reusing the buffer. A non-nil
// error means b is not a well-formed frame; fr is then in an unspecified
// state and must not be used.
func Decode(b []byte, fr *Frame) error {
	if err := decodeFixed(b, fr); err != nil {
		return err
	}
	rest := b[fixedHeaderLen:]

	var err error
	if fr.Data, rest, err = takeBytes(rest, MaxData); err != nil {
		return fmt.Errorf("data section: %w", err)
	}
	if fr.Kind == KindAck && len(fr.Data)%AckPairLen != 0 {
		return fmt.Errorf("wire: ack batch of %d bytes is not whole %d-byte pairs", len(fr.Data), AckPairLen)
	}
	return decodeStrs(rest, fr)
}

// CheckTrailer returns the error Decode returns for a frame body whose
// data section is followed by exactly t (TrailerLen bytes): nil when t is
// an empty string table.
func CheckTrailer(t []byte) error {
	var fr Frame
	return decodeStrs(t, &fr)
}

// decodeStrs parses the string table that ends a frame body into fr.
func decodeStrs(rest []byte, fr *Frame) error {
	if len(rest) < 2 {
		return ErrTruncated
	}
	nstr := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	if nstr > maxStrs {
		return fmt.Errorf("wire: string table too large: %d", nstr)
	}
	if nstr > 0 {
		fr.Strs = make([]string, nstr)
		for i := 0; i < nstr; i++ {
			if len(rest) < 2 {
				return ErrTruncated
			}
			sl := int(binary.LittleEndian.Uint16(rest))
			rest = rest[2:]
			if sl > maxStrLen {
				return fmt.Errorf("wire: frame string too long: %d", sl)
			}
			if len(rest) < sl {
				return ErrTruncated
			}
			fr.Strs[i] = string(rest[:sl])
			rest = rest[sl:]
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after frame", len(rest))
	}
	return nil
}

// takeBytes consumes a u32-length-prefixed section, returning nil (not an
// empty slice) for a zero-length section so decoded frames compare equal
// to their encoded source.
func takeBytes(b []byte, max int) (section, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, ErrTruncated
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n > max {
		return nil, nil, fmt.Errorf("wire: section length %d exceeds limit %d", n, max)
	}
	if len(b) < n {
		return nil, nil, ErrTruncated
	}
	if n == 0 {
		return nil, b, nil
	}
	return b[:n], b[n:], nil
}
