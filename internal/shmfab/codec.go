package shmfab

import (
	"math"

	"repro/internal/wire"
)

// Entry encoding. An entry is EntrySize bytes:
//
//	w0 @0:  kind u8 | flags u8 | paylen u16 | imm u32
//	w1 @8:  regionID u32 | offset u32
//	w2 @16: opID u64
//	@24:    InlineCapacity payload bytes
//
// Compact kinds carry the hot-path frames (puts, acks, and the
// notification of an origin's copy into an arena window) without the
// 79-byte wire header; origin and target are implicit in the ring
// direction. Everything else rides as a generically encoded wire frame in
// the bulk region (entFrame), fragmented when the encoding exceeds
// maxBulkAlloc (entFragFirst/entFragNext).
const (
	entPut       = 1 // KindPut, payload inline
	entPutBulk   = 2 // KindPut, payload in bulk: inline[0:8]=off, [8:16]=len
	entAck       = 3 // KindAck: opID + operand (inline[0:8])
	entFrame     = 4 // wire.Append-encoded frame in bulk: inline[0:8]=off, [8:16]=len
	entFragFirst = 5 // first fragment: inline[0:8]=off, [8:16]=chunk, [16:24]=total
	entFragNext  = 6 // continuation: inline[0:8]=off, [8:16]=chunk
	entNotify    = 7 // KindNotify: inline[0:8]=length, [8:16]=op kind

	efImmValid   = 1 << 0
	efNotifyBack = 1 << 1
)

// maxBulkAlloc caps one bulk allocation at half the region so the
// pad-to-wrap arithmetic can always satisfy it once the consumer drains;
// larger frames fragment.
const maxBulkAlloc = BulkSize / 2

// fragChunk is the fragment payload size for oversized frames.
const fragChunk = 1 << 20

// compactPut reports whether fr is a plain put the compact entry encoding
// captures losslessly: every field outside the entry must be zero/false.
// Anything else (message-class, atomic, oversized region coordinates)
// takes the generic path.
func compactPut(fr *wire.Frame, self, target int) bool {
	return fr.Kind == wire.KindPut &&
		fr.Origin == self && fr.Target == target &&
		len(fr.Strs) == 0 &&
		fr.MsgClass == 0 && fr.Operand == 0 && fr.Compare == 0 &&
		!fr.ChargeCopy &&
		fr.AtomicOp == 0 && fr.AccumOp == 0 &&
		fr.WireSize == len(fr.Data) &&
		fr.RegionID >= 0 && fr.RegionID <= math.MaxUint32 &&
		fr.Offset >= 0 && fr.Offset <= math.MaxUint32
}

// compactAck reports whether fr is a bare completion ack (opID + value).
func compactAck(fr *wire.Frame, self, target int) bool {
	return fr.Kind == wire.KindAck &&
		fr.Origin == self && fr.Target == target &&
		len(fr.Strs) == 0 && len(fr.Data) == 0 &&
		fr.MsgClass == 0 && fr.Compare == 0 &&
		fr.Imm == 0 &&
		!fr.ImmValid && !fr.NotifyBack && !fr.ChargeCopy &&
		fr.AtomicOp == 0 && fr.AccumOp == 0 &&
		fr.RegionID == 0 && fr.Offset == 0 && fr.WireSize == 0
}

// compactNotify reports whether fr is a notification the compact entry
// captures losslessly: region coordinates that fit the entry, no payload.
func compactNotify(fr *wire.Frame, self, target int) bool {
	return fr.Kind == wire.KindNotify &&
		fr.Origin == self && fr.Target == target &&
		fr.ImmValid && !fr.NotifyBack && !fr.ChargeCopy &&
		len(fr.Strs) == 0 && len(fr.Data) == 0 &&
		fr.MsgClass == 0 && fr.OpID == 0 && fr.WireSize == 0 &&
		fr.AtomicOp == 0 && fr.AccumOp == 0 &&
		fr.RegionID >= 0 && fr.RegionID <= math.MaxUint32 &&
		fr.Offset >= 0 && fr.Offset <= math.MaxUint32
}

func encHeader(e []byte, kind, flags byte, paylen uint16, imm uint32) {
	e[0] = kind
	e[1] = flags
	putU16(e, 2, paylen)
	putU32(e, 4, imm)
}

func putFlags(fr *wire.Frame) byte {
	var fl byte
	if fr.ImmValid {
		fl |= efImmValid
	}
	if fr.NotifyBack {
		fl |= efNotifyBack
	}
	return fl
}

// encPutInline encodes a compact put whose payload rides in the entry.
func encPutInline(e []byte, fr *wire.Frame) {
	encHeader(e, entPut, putFlags(fr), uint16(len(fr.Data)), fr.Imm)
	putU32(e, 8, uint32(fr.RegionID))
	putU32(e, 12, uint32(fr.Offset))
	putU64(e, 16, fr.OpID)
	copy(e[24:], fr.Data)
}

// encPutBulk encodes a compact put whose payload sits in the bulk region.
func encPutBulk(e []byte, fr *wire.Frame, bulkOff uint64) {
	encHeader(e, entPutBulk, putFlags(fr), 0, fr.Imm)
	putU32(e, 8, uint32(fr.RegionID))
	putU32(e, 12, uint32(fr.Offset))
	putU64(e, 16, fr.OpID)
	putU64(e, 24, bulkOff)
	putU64(e, 32, uint64(len(fr.Data)))
}

// encAck encodes a compact completion ack.
func encAck(e []byte, fr *wire.Frame) {
	encHeader(e, entAck, 0, 0, 0)
	putU64(e, 16, fr.OpID)
	putU64(e, 24, fr.Operand)
}

// encNotify encodes a compact notification.
func encNotify(e []byte, fr *wire.Frame) {
	encHeader(e, entNotify, efImmValid, 0, fr.Imm)
	putU32(e, 8, uint32(fr.RegionID))
	putU32(e, 12, uint32(fr.Offset))
	putU64(e, 24, fr.Operand)
	putU64(e, 32, fr.Compare)
}

// encFrame references a generically encoded frame in bulk.
func encFrame(e []byte, bulkOff uint64, n int) {
	encHeader(e, entFrame, 0, 0, 0)
	putU64(e, 24, bulkOff)
	putU64(e, 32, uint64(n))
}

// encFrag references one fragment of an oversized encoded frame.
func encFrag(e []byte, first bool, bulkOff uint64, chunk, total int) {
	kind := byte(entFragNext)
	if first {
		kind = entFragFirst
	}
	encHeader(e, kind, 0, 0, 0)
	putU64(e, 24, bulkOff)
	putU64(e, 32, uint64(chunk))
	if first {
		putU64(e, 40, uint64(total))
	}
}

// decPut rebuilds the frame a compact put entry encodes. data must already
// point at the payload (inline or bulk).
func decPut(e []byte, from, self int, data []byte, fr *wire.Frame) {
	*fr = wire.Frame{
		Kind:       wire.KindPut,
		Origin:     from,
		Target:     self,
		RegionID:   int(getU32(e, 8)),
		Offset:     int(getU32(e, 12)),
		WireSize:   len(data),
		OpID:       getU64(e, 16),
		Imm:        getU32(e, 4),
		ImmValid:   e[1]&efImmValid != 0,
		NotifyBack: e[1]&efNotifyBack != 0,
		Data:       data,
	}
}

// decAck rebuilds the frame a compact ack entry encodes.
func decAck(e []byte, from, self int, fr *wire.Frame) {
	*fr = wire.Frame{
		Kind:    wire.KindAck,
		Origin:  from,
		Target:  self,
		OpID:    getU64(e, 16),
		Operand: getU64(e, 24),
	}
}

// decNotify rebuilds the frame a compact notification entry encodes.
func decNotify(e []byte, from, self int, fr *wire.Frame) {
	*fr = wire.Frame{
		Kind:     wire.KindNotify,
		Origin:   from,
		Target:   self,
		RegionID: int(getU32(e, 8)),
		Offset:   int(getU32(e, 12)),
		Operand:  getU64(e, 24),
		Compare:  getU64(e, 32),
		Imm:      getU32(e, 4),
		ImmValid: true,
	}
}
