// Package kv is a sharded key-value store built on the Notified Access
// primitives — the first *service* on the stack rather than a benchmark
// kernel. Each rank owns the hash shard of the key space that maps to it
// and exposes two collective windows:
//
//   - the table window: an open-addressed bucket array holding the
//     shard's live entries. Clients read it with plain async RMA gets —
//     a lookup is one bucket-sized read from the owner, no server cycles
//     spent. Remote reads and the owner's CommitLocal writes both take
//     the table region's lock word, so a get observes each slot write
//     entirely or not at all. On shm the table sits in the owner's window
//     arena and a client's get is its own copy out of it: the word lives
//     in the arena's region table, so that copy takes the same word the
//     owner's CommitLocal does, and the bucket stays untorn with no
//     version check.
//   - the log window: per-client lanes of fixed-size record slots.
//     A put/delete/batch is ONE notified put landing a record in the
//     caller's lane; the owner's active-message handler (registered on
//     the record class) applies it to the table and chains a zero-byte
//     ack notification back. Mutations cost the client no round trip
//     beyond the ack it can drain lazily.
//
// Flow control is a per-(client, owner) credit window of LaneSlots
// records: a client never has more than LaneSlots unacked records at one
// owner, so lane slots are reused only after the owner confirmed the
// apply and the AM dispatch queue (sized to the worst-case burst) can
// never shed. Acks for one owner arrive in lane order — the handler is
// single-worker and the fabric delivers per-pair FIFO — so the k-th ack
// from an owner completes the k-th record sent there.
//
// The package runs unmodified on all four engines (Sim, Real, TCP, shm):
// it only speaks fompi, and self-targeted operations take the same NIC
// path as remote ones.
package kv

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/fompi"
)

// Tag classes on the log window: records dispatch to the owner's AM
// handler, acks feed the client's persistent counting requests.
const (
	tagRecord = 10
	tagAck    = 11
)

// Record op kinds.
const (
	opPut = 1
	opDel = 2
)

// Slot states in the table window.
const (
	slotFree = 0
	slotLive = 1
)

const slotHdr = 8  // state u8 | keyLen u8 | valLen u16 | keyHash u32
const recHdr = 4   // count u8 | pad u8 | bodyLen u16
const recOpHdr = 4 // kind u8 | keyLen u8 | valLen u16

// Options sizes the store. Zero values select the defaults.
type Options struct {
	// Buckets is the number of hash buckets per shard (default 128).
	Buckets int
	// SlotsPerBucket is the bucket's fixed slot count (default 4); a put
	// into a bucket with no free slot and no matching key is dropped and
	// counted (Stats.FullDrops).
	SlotsPerBucket int
	// SlotBytes is the fixed slot size (default 128); slotHdr bytes of
	// header, then key then value. Puts with keyLen+valLen+slotHdr >
	// SlotBytes are rejected client-side.
	SlotBytes int
	// LaneSlots is the per-(client,owner) credit window in records
	// (default 16).
	LaneSlots int
	// RecordBytes is the fixed log-record size (default 256) and thus the
	// batch capacity of one multi-put record.
	RecordBytes int
	// Queue overrides the AM dispatch queue bound (default: worst-case
	// burst N*LaneSlots plus slack, so credit flow control guarantees no
	// sheds).
	Queue int
	// Replicate backs the table with a replicated window: every commit is
	// transparently forwarded to a buddy rank's mirror, so the shard
	// contents survive a rank death between checkpoints. The caller
	// drives the checkpoint/restore cycle through p.FT() — typically
	// Flush, then FT().Checkpoint(); and FT().Restore() after reopening
	// in a recovery generation. Lane (log) windows are not replicated:
	// their contents are transient protocol state.
	Replicate bool
}

func (o *Options) defaults(ranks int) {
	if o.Buckets <= 0 {
		o.Buckets = 128
	}
	if o.SlotsPerBucket <= 0 {
		o.SlotsPerBucket = 4
	}
	if o.SlotBytes <= 0 {
		o.SlotBytes = 128
	}
	if o.LaneSlots <= 0 {
		o.LaneSlots = 16
	}
	if o.RecordBytes <= 0 {
		o.RecordBytes = 256
	}
	if o.Queue <= 0 {
		o.Queue = ranks*o.LaneSlots + 16
	}
}

// Stats is one rank's store counter snapshot: the server side counts
// applies, the client side counts issued operations.
type Stats struct {
	// Server (shard owner) side.
	Applied   uint64 // puts applied to the table
	Deleted   uint64 // deletes applied
	Batches   uint64 // records dispatched (a batch of k ops is 1 record)
	FullDrops uint64 // puts dropped because the bucket had no slot
	BadRecord uint64 // malformed records ignored
	// Client side.
	Gets     uint64 // single-key lookups issued
	Puts     uint64 // puts/deletes issued (batched ops count individually)
	Records  uint64 // records sent
	AckWaits uint64 // times the client blocked on the credit window
}

// Store is one rank's handle on the sharded table: shard owner for the
// keys hashing to this rank, client for every shard. Open and Close are
// collective; the data-path methods are rank-local. A Store is not
// goroutine-safe — one rank drives it.
type Store struct {
	p      *fompi.Proc
	opt    Options
	rank   int
	n      int
	table  *fompi.Win
	rtable *fompi.RWin // non-nil iff Options.Replicate: table is its primary
	log    *fompi.Win
	reg    *fompi.HandlerReg

	// Client-side per-owner lane state: seq counts records sent, acked
	// counts acks consumed; seq-acked is the in-flight window. sendBuf
	// holds LaneSlots persistent record buffers per owner, reused only
	// after the ack freed the slot (zero-copy safe).
	seq     []uint64
	acked   []uint64
	ackReq  []*fompi.Request
	sendBuf [][][]byte

	// Server-side scratch (handler runs single-worker).
	bucketScratch []byte
	stats         Stats
	srvApplied    uint64
	srvDeleted    uint64
	srvBatches    uint64
	srvFullDrops  uint64
	srvBadRecord  uint64
}

// Open builds the store collectively: every rank allocates its table and
// log windows, registers the record handler, arms one persistent ack
// request per peer, and barriers so no record can arrive before its
// handler exists.
func Open(p *fompi.Proc, opt Options) *Store {
	opt.defaults(p.N())
	s := &Store{p: p, opt: opt, rank: p.Rank(), n: p.N()}
	tableSize := opt.Buckets * opt.SlotsPerBucket * opt.SlotBytes
	if opt.Replicate {
		s.rtable = p.WinAllocateReplicated(tableSize)
		s.table = s.rtable.Primary()
	} else {
		s.table = p.WinAllocate(tableSize)
	}
	s.log = p.WinAllocate(p.N() * opt.LaneSlots * opt.RecordBytes)
	s.bucketScratch = make([]byte, opt.SlotsPerBucket*opt.SlotBytes)
	s.seq = make([]uint64, s.n)
	s.acked = make([]uint64, s.n)
	s.ackReq = make([]*fompi.Request, s.n)
	s.sendBuf = make([][][]byte, s.n)
	for o := 0; o < s.n; o++ {
		s.ackReq[o] = s.log.NotifyInit(o, tagAck, 1)
		s.ackReq[o].Start()
		s.sendBuf[o] = make([][]byte, opt.LaneSlots)
		for i := range s.sendBuf[o] {
			s.sendBuf[o][i] = make([]byte, opt.RecordBytes)
		}
	}
	// Workers:1 keeps applies serialized in lane order — the ordering the
	// ack protocol and the deterministic soak rely on. The queue is sized
	// so the credit window can never overflow it.
	s.reg = s.log.RegisterHandlerCfg(tagRecord, s.apply, fompi.AMConfig{Workers: 1, Queue: opt.Queue})
	p.Barrier()
	return s
}

// Close drains the client side, quiesces the handlers, and frees the
// windows. Collective.
func (s *Store) Close() {
	s.Flush()
	s.p.Barrier() // every rank drained: no record or ack still in flight
	s.p.FlushHandlers()
	s.reg.Unregister()
	for _, r := range s.ackReq {
		r.Free()
	}
	if s.rtable != nil {
		s.rtable.Free()
	} else {
		s.table.Free()
	}
	s.log.Free()
	s.p.JoinAMWorkers()
}

// hashKey is FNV-1a 32; the low bits shard across ranks, the rest picks
// the bucket, and the full value is stored in the slot header to cheapen
// scans.
func hashKey(key []byte) uint32 {
	h := fnv.New32a()
	h.Write(key)
	v := h.Sum32()
	if v == 0 {
		v = 1
	}
	return v
}

// Owner returns the rank owning key's shard.
func (s *Store) Owner(key []byte) int { return int(hashKey(key)) % s.n }

func (s *Store) bucketIndex(h uint32) int {
	return int(h/uint32(s.n)) % s.opt.Buckets
}

func (s *Store) bucketOff(b int) int { return b * s.opt.SlotsPerBucket * s.opt.SlotBytes }

func (s *Store) laneOff(slot int) int {
	return (s.rank*s.opt.LaneSlots + slot) * s.opt.RecordBytes
}

// maxEntry returns the largest keyLen+valLen a slot can hold.
func (s *Store) maxEntry() int { return s.opt.SlotBytes - slotHdr }

// ---------------------------------------------------------------------------
// Client side: gets
// ---------------------------------------------------------------------------

// GetFuture is an in-flight lookup: one async RMA bucket read plus the
// key to resolve inside it once the data lands.
type GetFuture struct {
	s   *Store
	key []byte
	h   uint32
	buf []byte
	get *fompi.GetHandle
}

// GetAsync starts a lookup: one bucket-sized RMA read from the owner.
func (s *Store) GetAsync(key []byte) *GetFuture {
	s.stats.Gets++
	h := hashKey(key)
	owner := int(h) % s.n
	f := &GetFuture{s: s, key: append([]byte(nil), key...), h: h,
		buf: make([]byte, s.opt.SlotsPerBucket*s.opt.SlotBytes)}
	f.get = s.table.IGet(owner, s.bucketOff(s.bucketIndex(h)), f.buf)
	return f
}

// Done polls for the bucket read having landed.
func (f *GetFuture) Done() bool { return f.get.Done() }

// Await blocks for the read and resolves the key inside the bucket.
// The returned slice is the future's own copy.
func (f *GetFuture) Await() ([]byte, bool) {
	f.get.Await()
	return scanBucket(f.s.opt, f.buf, f.h, f.key)
}

// Get is the blocking single-key lookup.
func (s *Store) Get(key []byte) ([]byte, bool) {
	return s.GetAsync(key).Await()
}

// MGet resolves many keys: all bucket reads are issued before any is
// awaited, so the latencies overlap. Missing keys yield nil.
func (s *Store) MGet(keys [][]byte) [][]byte {
	futs := make([]*GetFuture, len(keys))
	for i, k := range keys {
		futs[i] = s.GetAsync(k)
	}
	out := make([][]byte, len(keys))
	for i, f := range futs {
		v, ok := f.Await()
		if ok {
			out[i] = v
		}
	}
	return out
}

// scanBucket resolves key inside a bucket image read from the owner.
func scanBucket(opt Options, bucket []byte, h uint32, key []byte) ([]byte, bool) {
	for i := 0; i < opt.SlotsPerBucket; i++ {
		slot := bucket[i*opt.SlotBytes : (i+1)*opt.SlotBytes]
		if slot[0] != slotLive {
			continue
		}
		if binary.LittleEndian.Uint32(slot[4:8]) != h {
			continue
		}
		kl := int(slot[1])
		if kl != len(key) || string(slot[slotHdr:slotHdr+kl]) != string(key) {
			continue
		}
		vl := int(binary.LittleEndian.Uint16(slot[2:4]))
		return append([]byte(nil), slot[slotHdr+kl:slotHdr+kl+vl]...), true
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Client side: puts
// ---------------------------------------------------------------------------

// PutAsync sends key=val to its owner as one notified-put record and
// returns (owner, seq): the put is applied once Acked(owner) > seq. It
// blocks only when the owner's credit window is exhausted.
func (s *Store) PutAsync(key, val []byte) (owner int, seq uint64) {
	return s.sendOps(key, [][2][]byte{{key, val}}, opPut)
}

// Put is the acked put: it returns after the owner applied the record.
func (s *Store) Put(key, val []byte) {
	owner, seq := s.PutAsync(key, val)
	for s.acked[owner] <= seq {
		s.awaitAck(owner)
	}
}

// Del removes key (acked).
func (s *Store) Del(key []byte) {
	owner, seq := s.sendOps(key, [][2][]byte{{key, nil}}, opDel)
	for s.acked[owner] <= seq {
		s.awaitAck(owner)
	}
}

// KV is one multi-put pair.
type KV struct {
	Key, Val []byte
}

// MPut applies many puts: pairs are grouped by owner, packed into batch
// records (one active message applies a whole sub-batch at the owner),
// and all acks are awaited before return. Per-owner application order
// follows the order of pairs.
func (s *Store) MPut(pairs []KV) {
	byOwner := make(map[int][][2][]byte)
	for _, kv := range pairs {
		o := s.Owner(kv.Key)
		byOwner[o] = append(byOwner[o], [2][]byte{kv.Key, kv.Val})
	}
	want := make(map[int]uint64)
	for o, ops := range byOwner {
		// Pack greedily up to the record capacity.
		for len(ops) > 0 {
			n := s.packLimit(ops)
			_, seq := s.sendOpsTo(o, ops[:n], opPut)
			want[o] = seq + 1
			ops = ops[n:]
		}
	}
	for o, w := range want {
		for s.acked[o] < w {
			s.awaitAck(o)
		}
	}
}

// packLimit returns how many leading ops fit in one record.
func (s *Store) packLimit(ops [][2][]byte) int {
	body := 0
	for i, op := range ops {
		need := recOpHdr + len(op[0]) + len(op[1])
		if i > 0 && (recHdr+body+need > s.opt.RecordBytes || i >= 255) {
			return i
		}
		body += need
	}
	return len(ops)
}

// sendOps routes single-key ops by the first key's owner.
func (s *Store) sendOps(key []byte, ops [][2][]byte, kind byte) (int, uint64) {
	return s.sendOpsTo(s.Owner(key), ops, kind)
}

// sendOpsTo encodes ops into the next lane slot for owner and sends the
// record as one notified put. Returns the record's sequence number.
func (s *Store) sendOpsTo(owner int, ops [][2][]byte, kind byte) (int, uint64) {
	for s.seq[owner]-s.acked[owner] >= uint64(s.opt.LaneSlots) {
		s.stats.AckWaits++
		s.awaitAck(owner)
	}
	seq := s.seq[owner]
	s.seq[owner]++
	slot := int(seq % uint64(s.opt.LaneSlots))
	rec := s.sendBuf[owner][slot]
	body := 0
	count := 0
	for _, op := range ops {
		k, v := op[0], op[1]
		if len(k) == 0 || len(k) > 255 || len(k)+len(v) > s.maxEntry() {
			panic(fmt.Sprintf("kv: entry too large or empty key (keyLen=%d valLen=%d, max entry %d)",
				len(k), len(v), s.maxEntry()))
		}
		off := recHdr + body
		if off+recOpHdr+len(k)+len(v) > s.opt.RecordBytes || count >= 255 {
			panic(fmt.Sprintf("kv: batch of %d ops overflows record (%d bytes)", len(ops), s.opt.RecordBytes))
		}
		rec[off] = kind
		rec[off+1] = byte(len(k))
		binary.LittleEndian.PutUint16(rec[off+2:off+4], uint16(len(v)))
		copy(rec[off+recOpHdr:], k)
		copy(rec[off+recOpHdr+len(k):], v)
		body += recOpHdr + len(k) + len(v)
		count++
		s.stats.Puts++
	}
	rec[0] = byte(count)
	rec[1] = 0
	binary.LittleEndian.PutUint16(rec[2:4], uint16(body))
	s.stats.Records++
	s.log.PutNotify(owner, s.laneOff(slot), rec[:recHdr+body], tagRecord)
	return owner, seq
}

// awaitAck consumes one ack notification from owner (blocking) and
// re-arms the persistent request.
func (s *Store) awaitAck(owner int) {
	s.ackReq[owner].Wait()
	s.acked[owner]++
	s.ackReq[owner].Start()
}

// DrainAcks consumes every ack that already arrived, without blocking.
func (s *Store) DrainAcks() {
	for o := 0; o < s.n; o++ {
		for s.ackReq[o].Test() {
			s.acked[o]++
			s.ackReq[o].Start()
		}
	}
}

// Acked returns how many records owner has acked (completion watermark
// for PutAsync sequence numbers).
func (s *Store) Acked(owner int) uint64 { return s.acked[owner] }

// Flush blocks until every record this rank sent has been applied and
// acked.
func (s *Store) Flush() {
	for o := 0; o < s.n; o++ {
		for s.acked[o] < s.seq[o] {
			s.awaitAck(o)
		}
	}
}

// Stats snapshots the rank's counters (client side plus this shard's
// server side).
func (s *Store) Stats() Stats {
	st := s.stats
	st.Applied = s.srvApplied
	st.Deleted = s.srvDeleted
	st.Batches = s.srvBatches
	st.FullDrops = s.srvFullDrops
	st.BadRecord = s.srvBadRecord
	return st
}

// ---------------------------------------------------------------------------
// Server side: the active-message handler
// ---------------------------------------------------------------------------

// apply is the AM handler: it decodes the record deposited in the lane
// and applies each op to the table window, then chains the ack. It runs
// on the single AM worker (or in Sim kernel context), so it is the only
// writer of the table window; CommitLocal keeps each slot write atomic
// against concurrent remote bucket reads. The server-side counters are
// only written here and read by Stats after quiescence (Close/Flush
// +Barrier), so they need no lock.
func (s *Store) apply(m *fompi.AMsg) {
	if !s.applyRecord(m.Data()) {
		return
	}
	// The ack releases the lane slot at the client: chain it only after
	// every op of the record hit the table.
	s.log.ChainPutNotify(m.Source, 0, nil, tagAck)
}

// applyRecord applies the ops of one record (walkRecord) and counts it;
// it reports whether the record was a batch, which the client awaits an
// ack for.
func (s *Store) applyRecord(rec []byte) bool {
	batch, bad := walkRecord(rec, s.opt.SlotBytes, s.applyOp)
	s.srvBadRecord += uint64(bad)
	if batch {
		s.srvBatches++
	}
	return batch
}

// applyOp applies one well-formed op of a record.
func (s *Store) applyOp(kind byte, key, val []byte) {
	if kind == opPut {
		s.applyPut(key, val)
	} else {
		s.applyDel(key)
	}
}

// walkRecord decodes a record, bytes a peer deposited: a recHdr header
// (op count, body length), then that many ops, each a recOpHdr header
// (kind, key length, value length), the key and the value. It calls op
// for each well-formed op in order, and reports whether the header was
// well formed (the record is a batch) and how many bad entries it met:
// a short or overlong header is one and ends the record, so does an op
// that overruns the body; an op of unknown kind, and a put whose entry
// would not fit a slot of slotBytes, is one and is skipped.
func walkRecord(rec []byte, slotBytes int, op func(kind byte, key, val []byte)) (batch bool, bad int) {
	if len(rec) < recHdr {
		return false, 1
	}
	count := int(rec[0])
	end := recHdr + int(binary.LittleEndian.Uint16(rec[2:4]))
	if end > len(rec) {
		return false, 1
	}
	off := recHdr
	for i := 0; i < count; i++ {
		if off+recOpHdr > end {
			return true, bad + 1
		}
		kind := rec[off]
		kl := int(rec[off+1])
		vl := int(binary.LittleEndian.Uint16(rec[off+2 : off+4]))
		next := off + recOpHdr + kl + vl
		if next > end {
			return true, bad + 1
		}
		key := rec[off+recOpHdr : off+recOpHdr+kl]
		switch {
		case kind == opPut && slotHdr+kl+vl <= slotBytes, kind == opDel:
			op(kind, key, rec[off+recOpHdr+kl:next])
		default:
			bad++
		}
		off = next
	}
	return true, bad
}

// commitTable is the single table write path: under Replicate it routes
// through the replicated window so the buddy mirror stays coherent (safe
// from the record handler's context — the mirror forward is a chained
// notified put).
func (s *Store) commitTable(off int, data []byte) {
	if s.rtable != nil {
		s.rtable.CommitLocal(off, data)
		return
	}
	s.table.CommitLocal(off, data)
}

// applyPut upserts one entry: matching-key slot if present, else the
// bucket's first free slot; a full bucket drops the put (counted).
func (s *Store) applyPut(key, val []byte) {
	h := hashKey(key)
	b := s.bucketIndex(h)
	base := s.bucketOff(b)
	s.table.ReadLocal(base, s.bucketScratch)
	target := -1
	for i := 0; i < s.opt.SlotsPerBucket; i++ {
		slot := s.bucketScratch[i*s.opt.SlotBytes : (i+1)*s.opt.SlotBytes]
		if slot[0] != slotLive {
			if target < 0 {
				target = i
			}
			continue
		}
		if binary.LittleEndian.Uint32(slot[4:8]) == h && int(slot[1]) == len(key) &&
			string(slot[slotHdr:slotHdr+len(key)]) == string(key) {
			target = i
			break
		}
	}
	if target < 0 {
		s.srvFullDrops++
		return
	}
	slot := s.bucketScratch[target*s.opt.SlotBytes : (target+1)*s.opt.SlotBytes]
	for i := range slot {
		slot[i] = 0
	}
	slot[0] = slotLive
	slot[1] = byte(len(key))
	binary.LittleEndian.PutUint16(slot[2:4], uint16(len(val)))
	binary.LittleEndian.PutUint32(slot[4:8], h)
	copy(slot[slotHdr:], key)
	copy(slot[slotHdr+len(key):], val)
	s.commitTable(base+target*s.opt.SlotBytes, slot)
	s.srvApplied++
}

// applyDel frees the entry's slot (a one-byte state commit).
func (s *Store) applyDel(key []byte) {
	h := hashKey(key)
	base := s.bucketOff(s.bucketIndex(h))
	s.table.ReadLocal(base, s.bucketScratch)
	for i := 0; i < s.opt.SlotsPerBucket; i++ {
		slot := s.bucketScratch[i*s.opt.SlotBytes : (i+1)*s.opt.SlotBytes]
		if slot[0] != slotLive {
			continue
		}
		if binary.LittleEndian.Uint32(slot[4:8]) == h && int(slot[1]) == len(key) &&
			string(slot[slotHdr:slotHdr+len(key)]) == string(key) {
			s.commitTable(base+i*s.opt.SlotBytes, []byte{slotFree})
			s.srvDeleted++
			return
		}
	}
}
