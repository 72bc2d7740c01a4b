package fabric

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/match"
	"repro/internal/wire"
)

// OpKind classifies remote operations as seen in completion-queue entries.
type OpKind int

const (
	// OpPut is a remote write.
	OpPut OpKind = iota
	// OpGet is a remote read.
	OpGet
	// OpAtomic is a remote atomic (fetch-add / compare-and-swap).
	OpAtomic
	// OpAccum is a remote element-wise accumulate.
	OpAccum
)

func (k OpKind) String() string {
	switch k {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpAtomic:
		return "atomic"
	case OpAccum:
		return "accum"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Imm is an optional 4-byte immediate attached to a remote operation and
// surfaced at the target as a notification — uGNI's destination-CQ
// feature, which Notified Access is built on.
type Imm struct {
	Valid bool
	Val   uint32
}

// WithImm constructs a valid immediate.
func WithImm(v uint32) Imm { return Imm{Valid: true, Val: v} }

// CQE is a destination completion entry: the record that a remote
// operation with an immediate committed against local memory.
type CQE struct {
	Origin   int    // originating rank (known to the NIC hardware)
	Imm      uint32 // the 4-byte immediate
	Kind     OpKind
	RegionID int
	Offset   int
	Len      int
}

// NotifySink receives the notifications for one registered region at delivery
// time: the region's consumer matches them as they arrive, with no queue in
// between (InstallNotifySink). Deliver is invoked outside every fabric lock:
// under Sim in kernel context (on the goroutine holding the baton) at the
// packet's arrival time, under the wall-clock engines on the goroutine that
// sent the packet (in-process) or read its frame (link) — it must not block in
// any case. Deliveries from different senders run on different goroutines, so
// Deliver must be safe for concurrent calls, and no sender may post to a NIC
// while holding a lock that Deliver takes.
type NotifySink interface {
	Deliver(cqe CQE)
}

// MsgHdr is a message's header: three words whose meaning the posting
// layer defines per class (unused words stay zero). It is the whole
// header on every engine — a few words written into a peer's mailbox, as
// on the paper's platform — and crosses a process boundary in the frame's
// fixed fields.
type MsgHdr [3]int

// Msg is a small control or data message delivered to the NIC's message
// queue — the stand-in for FMA writes into per-rank mailbox rings. The
// message-passing and RMA-synchronization layers build their protocols on
// these.
type Msg struct {
	Origin int
	Class  int    // layer discriminator (each layer picks distinct classes)
	Hdr    MsgHdr // layer-specific header words
	Data   []byte // optional payload bytes
	// ChargeCopy tells the receiver the bytes landed in a bounce buffer and
	// the copy into the user buffer must be charged (eager protocol); when
	// false the bytes were RDMA-written straight to their destination
	// (rendezvous) and the receive-side copy is free in modeled time.
	ChargeCopy bool
}

// msgHeaderBytes is the modeled wire size of a message header.
const msgHeaderBytes = 16

// AtomicOp selects the remote atomic operation.
type AtomicOp int

const (
	// AtomicFetchAdd atomically adds the operand to the target uint64 and
	// returns the previous value.
	AtomicFetchAdd AtomicOp = iota
	// AtomicCAS compares the target uint64 with Compare and, if equal,
	// stores the operand; the previous value is returned either way.
	AtomicCAS
)

// AccumOp selects the element-wise accumulate operation (float64 elements).
type AccumOp int

const (
	// AccumSum adds element-wise.
	AccumSum AccumOp = iota
	// AccumReplace overwrites (MPI_REPLACE).
	AccumReplace
)

// pktKind is the wire's frame kind: a packet's kind crosses a process
// boundary unchanged, and the data-plane names below are the only ones the
// fabric produces or accepts.
type pktKind = wire.Kind

const (
	pktPut     = wire.KindPut
	pktGetReq  = wire.KindGetReq
	pktGetResp = wire.KindGetResp
	pktAtomic  = wire.KindAtomic
	pktAccum   = wire.KindAccum
	pktAck     = wire.KindAck
	pktCtrl    = wire.KindCtrl
	pktData    = wire.KindData
	pktNotify  = wire.KindNotify // a notification without data: a notified get's (origin-ordered, deferred) or an arena copy's; compare is its OpKind
)

type packet struct {
	kind           pktKind
	origin, target int
	regionID       int
	offset         int
	data           []byte
	pooled         bool // data came from the fabric's buffer pool; recycle at commit
	dstDirect      bool // getResp: payload already committed straight into op.dst (zero-copy)
	placed         bool // put: the link read the payload into the window, data aliases it (placeFrame)
	imm            Imm
	wireSize       int
	inlineEligible bool
	notifyBack     bool  // getResp: origin must send a pktNotify back
	extraDelay     int64 // ns added before the packet departs (target CPU/NIC processing)
	reply          bool  // produced by delivery: a link send must never park (netSend)

	op *Op // origin-side handle, echoed back on acks/responses

	// opID is the wire identity of op for the distributed fabric: pointers
	// cannot cross a process boundary, so the origin registers the op under
	// this ID and the target echoes it back on acks and get responses.
	// Assigned once per op; zero on single-process fabrics and on packets
	// that carry no op.
	opID uint64

	aop              AtomicOp
	operand, compare uint64
	accOp            AccumOp

	msg *Msg

	dst *NIC // Sim: the NIC the scheduled delivery event commits against
}

// Fire is the Sim delivery event: the packet is its own callback, so
// scheduling a delivery builds no closure.
func (pkt *packet) Fire() { pkt.dst.deliver(pkt) }

// Op is the origin-side handle of an outstanding remote operation. Done
// becomes true at *remote* completion (data committed at the target, get
// data landed locally, atomic result returned), which is what Flush waits
// for.
type Op struct {
	nic      *NIC
	target   int
	kind     OpKind
	dst      []byte // get destination
	done     bool
	detached bool // fire-and-forget: recycle into the NIC's op freelist at completion
	result   uint64
	err      error  // peer-failure completion
	netID    uint64 // wire identity (distributed fabric); 0 = unregistered
}

// Done reports whether the operation is remotely complete.
func (o *Op) Done() bool {
	o.nic.mu.Lock()
	defer o.nic.mu.Unlock()
	return o.done
}

// Await parks p until the operation is remotely complete.
func (o *Op) Await(p *exec.Proc) {
	n := o.nic
	n.mu.Lock()
	for !o.done {
		n.opAwaitWaiters++
		n.opGate.Wait(p)
		n.opAwaitWaiters--
	}
	n.mu.Unlock()
}

// Err returns the operation's failure, if any: non-nil (unwrapping to
// ErrPeerFailed) when the peer-failure detector completed the op because
// its target was declared dead. Valid once Done/Await report completion.
func (o *Op) Err() error {
	o.nic.mu.Lock()
	defer o.nic.mu.Unlock()
	return o.err
}

// Result returns the fetched value of a completed atomic. It panics if the
// operation has not completed.
func (o *Op) Result() uint64 {
	o.nic.mu.Lock()
	defer o.nic.mu.Unlock()
	if !o.done {
		panic("fabric: Result on incomplete op")
	}
	return o.result
}

// Detach declares the caller will never touch this handle again (no Done,
// Await, or Result), letting the NIC recycle it into its op freelist at
// remote completion. Fire-and-forget posting paths (put streams completed
// by Flush, blocking helpers that already consumed the result) use it to
// keep the steady-state hot path allocation-free.
func (o *Op) Detach() {
	n := o.nic
	n.mu.Lock()
	if o.done {
		n.recycleOpLocked(o)
	} else {
		o.detached = true
	}
	n.mu.Unlock()
}

// MemRegion is a registered memory region remotely accessible by its ID.
// Each region carries its own reader-writer lock word guarding the
// backing bytes (rwword.go), so payload commits to different regions
// never serialize on the NIC-wide lock (lock order: NIC.mu, then regMu,
// then the region word — payload paths that need no queue state take only
// the word). The word is the region's own field, or, for a window in the
// shm window arena, its slot in the arena's region table, which every
// rank mapping the arena locks too.
type MemRegion struct {
	ID   int
	nic  *NIC
	buf  []byte
	lock *rwLock // &own, or the window's slot lock in the arena
	own  rwLock

	// notifyMu guards sink and early. Delivery reads the sink under it
	// and calls Deliver after releasing it.
	notifyMu sync.Mutex
	sink     NotifySink
	early    []CQE // arrived before the sink, in arrival order
}

// inArena reports whether the region's bytes and lock live in the
// window arena.
func (r *MemRegion) inArena() bool { return r.lock != &r.own }

// Bytes returns the region's backing memory. The owner may access it
// directly, subject to the usual RMA synchronization rules.
func (r *MemRegion) Bytes() []byte { return r.buf }

// Len returns the region size in bytes.
func (r *MemRegion) Len() int { return len(r.buf) }

// lockW takes the region word for writing, counting contended
// acquisitions.
func (r *MemRegion) lockW() {
	if c, _ := r.lock.lock(r.nic.rank, r.nic.rank, r.nic.f); c {
		r.nic.regionContention.Add(1)
	}
}

// unlockW releases the write hold.
func (r *MemRegion) unlockW() { r.lock.unlock() }

// lockR takes the region word for reading, counting contended
// acquisitions.
func (r *MemRegion) lockR() {
	if c, _ := r.lock.rlock(r.nic.rank, r.nic.rank, r.nic.f); c {
		r.nic.regionContention.Add(1)
	}
}

// unlockR releases a read hold.
func (r *MemRegion) unlockR() { r.lock.runlock() }

// commit copies data into the region at off under the region write lock.
func (r *MemRegion) commit(off int, data []byte) {
	r.lockW()
	copy(r.buf[off:], data)
	r.unlockW()
}

// place lands a put of size bytes at off that a link reads straight into
// the region (Fabric.placeFrame): it copies head, the part the link has
// buffered, then has rest read the remainder in after it, under one write
// hold, so a reader sees the put's bytes all old or all new.
func (r *MemRegion) place(off, size int, head []byte, rest func(dst []byte) error) error {
	r.lockW()
	defer r.unlockW()
	dst := r.buf[off : off+size]
	return rest(dst[copy(dst, head):])
}

// readInto copies length bytes at off into dst under the region read lock,
// so concurrent gets against one region proceed in parallel.
func (r *MemRegion) readInto(off int, dst []byte) {
	r.lockR()
	copy(dst, r.buf[off:])
	r.unlockR()
}

// CommitLocal copies data into the region at off under the region write
// lock — the owner-side analog of a remote put commit. A local writer
// (e.g. an active-message handler updating served state) that uses it is
// race-safe against concurrent remote gets and puts to the region, and
// each call is atomic with respect to any single remote read: a get never
// observes a torn entry.
func (r *MemRegion) CommitLocal(off int, data []byte) {
	if off < 0 || off+len(data) > len(r.buf) {
		panic(fmt.Sprintf("fabric: CommitLocal [%d,%d) outside region of %d bytes", off, off+len(data), len(r.buf)))
	}
	r.commit(off, data)
}

// ReadLocal copies len(dst) bytes at off into dst under the region read
// lock — the owner-side analog of a remote get, race-safe against
// concurrent remote commits to the region.
func (r *MemRegion) ReadLocal(off int, dst []byte) {
	if off < 0 || off+len(dst) > len(r.buf) {
		panic(fmt.Sprintf("fabric: ReadLocal [%d,%d) outside region of %d bytes", off, off+len(dst), len(r.buf)))
	}
	r.readInto(off, dst)
}

// msgEntry stamps a queued message with its rank-wide arrival sequence so
// multi-class consumers can merge class FIFOs back into arrival order.
type msgEntry struct {
	m   *Msg
	seq uint64
}

// msgClassQ is one message class's bucket: its FIFO, its depth high-water
// mark, and the waiters currently parked on the class.
type msgClassQ struct {
	q         match.FIFO[msgEntry]
	highWater int
	waiters   []*msgWaiter
}

// msgWaiter parks one consumer on a set of classes. Each waiter owns a
// dedicated gate; an arrival broadcasts only the gates registered under
// its class.
type msgWaiter struct {
	gate    exec.Gate
	ready   bool
	classes []int
}

// opFreeCap bounds the NIC's recycled-op freelist.
const opFreeCap = 1024

// NIC is one rank's network endpoint.
type NIC struct {
	f    *Fabric
	rank int

	// regMu guards the region table only; the payload bytes of each region
	// are guarded by the region's own lock. The data plane therefore takes
	// a read lock for the table lookup and the region lock for the copy,
	// never the control-plane mu.
	regMu   sync.RWMutex
	regions []*MemRegion

	// regionContention counts region-lock acquisitions that found the lock
	// held (TryLock failed) — the sharded data plane's contention signal.
	regionContention atomic.Int64
	// arenaFallbacks counts windows RegisterWindow put on the heap though
	// the link has window arenas.
	arenaFallbacks atomic.Int64

	mu     sync.Mutex
	opGate exec.Gate
	opFree []*Op // recycled detached op handles

	// Class-bucketed message dispatch engine: one FIFO per Msg.Class,
	// created on first use, plus a rank-wide arrival sequence so
	// multi-class consumers interleave buckets in arrival order. Waiters
	// register per class with dedicated gates, so an arrival wakes exactly
	// the consumers whose class set contains it — a barrier message never
	// wakes an MP receiver.
	msgQs         map[int]*msgClassQ
	msgSeq        uint64
	msgDepth      int
	msgHighWater  int
	msgWaiterPool []*msgWaiter

	outstanding []int // per-target ops awaiting remote completion
	totalOut    int
	// Waiter counts gating completeOp's opGate broadcast: awaiters need
	// every completion, flushers only care when an outstanding count
	// reaches zero. With both zero, completions stay silent.
	opAwaitWaiters int
	opFlushWaiters int

	// closed is set by Close; a packet that reaches a closed NIC is
	// discarded instead of committed.
	//
	// Checker-audit note: delivery never parks — it runs on the goroutine
	// that sent the packet (in-process) or read its frame (link) and takes
	// only mutexes — so every blocking edge in this package (op
	// await/flush, class-bucket message waits, the failure declaration's
	// timer) goes through exec.Gate or Env.Schedule, and the interleaving
	// checker (internal/check) observes the complete blocking/wake graph
	// under Sim.
	closed atomic.Bool

	// Peer-failure state (a fabric under a fault plan, or a distributed
	// fabric whose link detects dead peers; all nil/false elsewhere).
	// peerErr[r] is the failure recorded against rank r; pending[r] holds
	// this NIC's ops outstanding to r so a failure declaration can complete
	// them with the error (guarded by mu, lazily allocated).
	peerErr       []error
	anyPeerFailed bool
	pending       []map[*Op]struct{}
}

func newNIC(f *Fabric, rank int) *NIC {
	n := &NIC{
		f:           f,
		rank:        rank,
		outstanding: make([]int, f.cfg.Ranks),
	}
	n.opGate = f.env.NewGate(&n.mu)
	return n
}

// Rank returns the owning rank.
func (n *NIC) Rank() int { return n.rank }

// deliverGuarded commits pkt on the calling goroutine — the sender's
// (in-process) or the link reader's — unless the NIC is closed, in which
// case the packet is discarded. A delivery-time panic (a bounds violation,
// a failed peer surfacing from a sink) aborts the run with the panic as
// its error instead of unwinding the sender or crashing the process.
func (n *NIC) deliverGuarded(pkt *packet) {
	if n.closed.Load() {
		n.f.discardPacket(pkt)
		return
	}
	defer func() {
		if r := recover(); r != nil {
			re := exec.RealOf(n.f.env)
			if err, ok := r.(error); ok {
				// %w so errors.Is(runErr, ErrPeerFailed) survives the
				// panic-to-run-error conversion.
				re.Fail(fmt.Errorf("rank %d delivery panicked: %w", n.rank, err))
			} else {
				re.Fail(fmt.Errorf("rank %d delivery panicked: %v", n.rank, r))
			}
		}
	}()
	n.deliver(pkt)
}

// Close makes the NIC discard every packet that reaches it from now on.
// Deliveries already past the check finish on their own goroutines.
// Idempotent.
func (n *NIC) Close() { n.closed.Store(true) }

// Close makes a pending failure declaration inert and every local NIC
// discard what reaches it. On a distributed fabric only the local rank's
// NIC exists; the link itself is owned and closed by the layer that built
// it (internal/runtime).
func (f *Fabric) Close() {
	f.failMu.Lock()
	f.closed = true
	f.failMu.Unlock()
	for _, n := range f.nics {
		if n != nil {
			n.Close()
		}
	}
}

// Register exposes buf for remote access and returns its region handle.
// Registration order must match across ranks when the layers above rely on
// symmetric region IDs (as MPI window allocation does).
func (n *NIC) Register(buf []byte) *MemRegion {
	n.regMu.Lock()
	r := n.addRegionLocked(buf, nil)
	n.regMu.Unlock()
	return r
}

// RegisterWindow allocates size zeroed bytes of window memory and
// registers them. On a link with window arenas (shm) the bytes come from
// this rank's arena, published in its region table, so peers copy into
// and out of them themselves; a window the arena cannot hold (counted,
// ArenaFallbacks), and every window on the other engines, is heap memory.
func (n *NIC) RegisterWindow(size int) *MemRegion {
	n.regMu.Lock()
	defer n.regMu.Unlock()
	if a := n.f.arenas; a != nil {
		if buf, lock, ok := a.AllocWindow(len(n.regions), size); ok {
			return n.addRegionLocked(buf, lockWords(lock))
		}
		n.arenaFallbacks.Add(1)
	}
	return n.addRegionLocked(make([]byte, size), nil)
}

// ArenaFallbacks reports how many windows RegisterWindow put on the heap
// although the link has window arenas: the arena was full, or the
// window's slot in its region table was taken. Such a window travels as
// frames, like a window on TCP. Always 0 on the other engines.
func (n *NIC) ArenaFallbacks() int64 { return n.arenaFallbacks.Load() }

// addRegionLocked appends a region over buf, locked by lock (an arena
// slot's) or by its own when lock is nil. Caller holds regMu.
func (n *NIC) addRegionLocked(buf []byte, lock *rwLock) *MemRegion {
	r := &MemRegion{ID: len(n.regions), nic: n, buf: buf, lock: lock}
	if lock == nil {
		r.lock = &r.own
	}
	n.regions = append(n.regions, r)
	return r
}

// Deregister revokes remote access to the region. The ID is not reused;
// an arena window's bytes go back to the arena.
func (n *NIC) Deregister(r *MemRegion) {
	n.regMu.Lock()
	if r.ID < len(n.regions) && n.regions[r.ID] == r {
		n.regions[r.ID] = nil
		if r.inArena() {
			n.f.arenas.FreeWindow(r.ID)
		}
	}
	n.regMu.Unlock()
}

func (n *NIC) region(id int) *MemRegion {
	n.regMu.RLock()
	defer n.regMu.RUnlock()
	if id < 0 || id >= len(n.regions) || n.regions[id] == nil {
		panic(fmt.Sprintf("fabric: rank %d: access to unregistered region %d", n.rank, id))
	}
	return n.regions[id]
}

// regionOrNil is the tolerant lookup for a notification without data,
// which may trail its window's Free.
func (n *NIC) regionOrNil(id int) *MemRegion {
	n.regMu.RLock()
	defer n.regMu.RUnlock()
	if id < 0 || id >= len(n.regions) {
		return nil
	}
	return n.regions[id]
}

func (n *NIC) checkTarget(target int) {
	if target < 0 || target >= n.f.cfg.Ranks {
		panic(fmt.Sprintf("fabric: rank %d: invalid target rank %d", n.rank, target))
	}
}

// newOpLocked takes a recycled op handle, or allocates one, reset for
// (target, kind). Caller holds mu.
func (n *NIC) newOpLocked(target int, kind OpKind) *Op {
	var op *Op
	if k := len(n.opFree); k > 0 {
		op = n.opFree[k-1]
		n.opFree[k-1] = nil
		n.opFree = n.opFree[:k-1]
	} else {
		op = &Op{}
	}
	*op = Op{nic: n, target: target, kind: kind}
	return op
}

func (n *NIC) beginOp(target int, kind OpKind) *Op {
	n.mu.Lock()
	op := n.newOpLocked(target, kind)
	n.outstanding[target]++
	n.totalOut++
	if n.f.inj != nil || n.f.link != nil {
		if n.pending == nil {
			n.pending = make([]map[*Op]struct{}, n.f.cfg.Ranks)
		}
		m := n.pending[target]
		if m == nil {
			m = make(map[*Op]struct{})
			n.pending[target] = m
		}
		m[op] = struct{}{}
	}
	if n.anyPeerFailed && n.peerErr[target] != nil {
		// The target was already declared dead: the declaration's sweep ran
		// before this op existed, so complete it here, or its awaiter would
		// park forever.
		n.failOpLocked(op, n.peerErr[target])
	}
	n.mu.Unlock()
	return op
}

// recycleOpLocked returns a finished, detached op to the freelist.
func (n *NIC) recycleOpLocked(op *Op) {
	if len(n.opFree) < opFreeCap {
		op.dst = nil
		n.opFree = append(n.opFree, op)
	}
}

func (n *NIC) completeOp(op *Op, result uint64) {
	n.mu.Lock()
	wake, netID := n.completeLocked(op, result)
	n.mu.Unlock()
	if netID != 0 {
		n.f.netForgetOp(netID)
	}
	if wake {
		n.opGate.Broadcast()
	}
}

// completeOps completes ops with results under one hold of mu, with one
// broadcast. The caller has dropped their wire registrations already.
func (n *NIC) completeOps(ops []*Op, results []uint64) {
	if len(ops) == 0 {
		return
	}
	wake := false
	n.mu.Lock()
	for i, op := range ops {
		w, _ := n.completeLocked(op, results[i])
		wake = wake || w
	}
	n.mu.Unlock()
	if wake {
		n.opGate.Broadcast()
	}
}

// completeLocked marks op complete with result and recycles it if
// detached. It reports whether a waiter can observe the completion, and
// the wire ID the op was registered under (0 if none, or if the op had
// completed already). Caller holds mu.
func (n *NIC) completeLocked(op *Op, result uint64) (wake bool, netID uint64) {
	if op.done {
		// Already completed by the peer-failure detector; this is a late
		// ack that raced the declaration. The counters were adjusted then.
		return false, 0
	}
	op.done = true
	op.result = result
	n.outstanding[op.target]--
	n.totalOut--
	if n.pending != nil {
		delete(n.pending[op.target], op)
	}
	// Broadcast only when a waiter can observe this completion: Await
	// waiters re-check on every completion, Flush/FlushAll waiters only
	// when an outstanding count they watch hits zero. A completion with
	// nobody parked (the overwhelmingly common case on pipelined put
	// streams) stays silent instead of stampeding every sleeper.
	wake = n.opAwaitWaiters > 0 ||
		(n.opFlushWaiters > 0 && (n.outstanding[op.target] == 0 || n.totalOut == 0))
	netID = op.netID
	if op.detached {
		n.recycleOpLocked(op)
	}
	return wake, netID
}

// failOpLocked completes an op with a peer-failure error. Failed ops are
// never recycled even when detached: a late ack still in flight holds the
// pointer, and reuse would let it complete an unrelated op.
func (n *NIC) failOpLocked(op *Op, err error) {
	if op.done {
		return
	}
	op.done = true
	op.err = err
	n.outstanding[op.target]--
	n.totalOut--
	if n.pending != nil {
		delete(n.pending[op.target], op)
	}
}

// failOp completes an op with a peer-failure error and wakes its waiters.
func (n *NIC) failOp(op *Op, err error) {
	n.mu.Lock()
	n.failOpLocked(op, err)
	netID := op.netID
	wake := n.opAwaitWaiters > 0 || n.opFlushWaiters > 0
	n.mu.Unlock()
	if netID != 0 {
		n.f.netForgetOp(netID)
	}
	if wake {
		n.opGate.Broadcast()
	}
}

// notePeerFailure records a declared rank failure against this NIC: every
// pending op targeting the rank completes with the error, and every
// blocked waiter (op awaiters, flushers, message consumers) is woken so it
// can observe the failure instead of parking forever. Notification
// consumers wait on their sink's own gate, which the sink's owner wakes
// from the fabric's FailureHook.
func (n *NIC) notePeerFailure(failed int, err error) {
	n.mu.Lock()
	if n.peerErr == nil {
		n.peerErr = make([]error, n.f.cfg.Ranks)
	}
	if n.peerErr[failed] != nil {
		n.mu.Unlock()
		return
	}
	n.peerErr[failed] = err
	n.anyPeerFailed = true
	if n.pending != nil {
		for op := range n.pending[failed] {
			n.failOpLocked(op, err)
		}
	}
	// Collect waiters in sorted class order, not map order: the broadcast
	// below assigns wake-event sequence numbers under Sim, and replayable
	// exploration (internal/check) requires the event order to be a pure
	// function of the schedule, never of map iteration.
	var wake []*msgWaiter
	classes := make([]int, 0, len(n.msgQs))
	for c := range n.msgQs {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	for _, c := range classes {
		for _, w := range n.msgQs[c].waiters {
			if !w.ready {
				w.ready = true
				wake = append(wake, w)
			}
		}
	}
	n.mu.Unlock()
	n.opGate.Broadcast()
	for _, w := range wake {
		w.gate.Broadcast()
	}
}

// PeerError returns the failure recorded against rank, if any (non-nil
// errors unwrap to ErrPeerFailed). Layers with a precise dependency on
// one peer (e.g. a receive from a known source) poll this to fail fast.
func (n *NIC) PeerError(rank int) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.peerErr == nil {
		return nil
	}
	return n.peerErr[rank]
}

// peerPanicLocked picks the failure to surface from a blocked wait.
func (n *NIC) peerPanicLocked() error {
	for _, err := range n.peerErr {
		if err != nil {
			return err
		}
	}
	return ErrPeerFailed
}

// Put writes data into (target, regionID, offset) and returns the origin
// handle. If imm is valid, a CQE carrying it reaches the target region's
// notification sink once the data is committed — this is the primitive
// Notified Access builds on. p may be nil when called outside a rank (no
// overhead is charged then).
//
// The payload is staged in a pooled bounce buffer (recycled when the
// target commits it), except on the intra-node zero-copy fast path: above
// the BTE crossover under the Real engine the packet references data
// directly and the target copies source → region in a single copy (XPMEM
// single-copy semantics, paper §IV-C). Per MPI one-sided rules the caller
// must not modify data until the operation completes locally. On a link
// with window arenas (shm), a put into a peer's arena window is the
// origin's own copy instead, complete when Put returns (putArena).
func (n *NIC) Put(p *exec.Proc, target, regionID, offset int, data []byte, imm Imm) *Op {
	n.checkTarget(target)
	n.f.chargeSend(p)
	if buf, lock, ok := n.f.peerWindow(target, regionID); ok {
		return n.putArena(target, regionID, offset, data, imm, buf, lock)
	}
	var payload []byte
	pooled := false
	switch {
	case len(data) == 0:
		// Pure notification: nothing to stage.
	case n.f.zeroCopyEligible(n.rank, target, len(data)):
		payload = data
	case n.f.sendBorrowEligible(target):
		// The link serializes the payload synchronously inside transmit,
		// so the packet can borrow the caller's buffer for the duration
		// of this call.
		payload = data
	default:
		payload = n.f.pool.get(len(data))
		copy(payload, data)
		pooled = true
	}
	op := n.beginOp(target, OpPut)
	pkt := newPacket()
	*pkt = packet{
		kind: pktPut, origin: n.rank, target: target,
		regionID: regionID, offset: offset, data: payload, pooled: pooled, imm: imm,
		wireSize: len(data), inlineEligible: imm.Valid, op: op,
	}
	n.f.transmit(pkt)
	return op
}

// Get reads len(dst) bytes from (target, regionID, offset) into dst. If imm
// is valid, a CQE reaches the *target* region's notification sink as soon
// as the data has been read there (the notified-get semantics for
// reliable networks discussed in the paper §VIII). A get from a peer's
// arena window is the origin's own copy, complete when Get returns.
func (n *NIC) Get(p *exec.Proc, target, regionID, offset int, dst []byte, imm Imm) *Op {
	n.checkTarget(target)
	n.f.chargeSend(p)
	if buf, lock, ok := n.f.peerWindow(target, regionID); ok {
		return n.getArena(target, regionID, offset, dst, imm, buf, lock)
	}
	op := n.beginOp(target, OpGet)
	op.dst = dst
	pkt := newPacket()
	*pkt = packet{
		kind: pktGetReq, origin: n.rank, target: target,
		regionID: regionID, offset: offset, imm: imm,
		wireSize: 0, op: op, operand: uint64(len(dst)),
	}
	n.f.transmit(pkt)
	if imm.Valid && n.f.cfg.GetNotifyMode == GetNotifyOriginOrdered {
		// InfiniBand-style protocol (paper §IV-A): no read-with-immediate,
		// so inject a notification write right behind the read request;
		// per-pair FIFO ordering guarantees it executes after the read at
		// the responder.
		note := newPacket()
		*note = packet{
			kind: pktNotify, origin: n.rank, target: target,
			regionID: regionID, offset: offset,
			imm: imm, wireSize: 0, operand: uint64(len(dst)),
			compare: uint64(OpGet),
		}
		n.f.transmit(note)
	}
	return op
}

// RangeError reports an operation outside its target window, caught at
// the origin: an arena window's bounds are known there, so the origin's
// call panics with it and the target never sees the operation.
type RangeError struct {
	Origin, Target int
	Kind           OpKind
	RegionID       int
	Offset, Len    int
	RegionLen      int
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("fabric: rank %d: %v to rank %d out of bounds: region %d off %d len %d (region len %d)",
		e.Origin, e.Kind, e.Target, e.RegionID, e.Offset, e.Len, e.RegionLen)
}

// checkArenaRange panics with a *RangeError unless [off, off+length)
// lies within a window of regionLen bytes.
func (n *NIC) checkArenaRange(target int, kind OpKind, regionID, off, length, regionLen int) {
	if off < 0 || length > regionLen-off {
		panic(&RangeError{Origin: n.rank, Target: target, Kind: kind, RegionID: regionID,
			Offset: off, Len: length, RegionLen: regionLen})
	}
}

// putArena is Put into a peer's arena window: the origin copies under
// the window's lock and, for a notified put, publishes one
// notification-only entry after the copy — the ring's release of its
// tail orders the bytes before it. The op is complete at issue.
func (n *NIC) putArena(target, regionID, offset int, data []byte, imm Imm, buf []byte, lock *rwLock) *Op {
	n.checkArenaRange(target, OpPut, regionID, offset, len(data), len(buf))
	op, ok := n.issueArena(target, OpPut)
	if !ok {
		return op
	}
	if len(data) > 0 {
		if !n.holdArena(target, lock) {
			return n.failArena(op, target)
		}
		copy(buf[offset:], data)
		lock.unlock()
	}
	n.notifyArena(target, regionID, offset, len(data), OpPut, imm)
	return op
}

// getArena is Get from a peer's arena window: the origin copies under the
// window's lock, then a notified get publishes its entry. The op is
// complete at issue. The origin holds the lock as a writer (rwword.go:
// every hold from another process names its rank).
func (n *NIC) getArena(target, regionID, offset int, dst []byte, imm Imm, buf []byte, lock *rwLock) *Op {
	n.checkArenaRange(target, OpGet, regionID, offset, len(dst), len(buf))
	op, ok := n.issueArena(target, OpGet)
	if !ok {
		return op
	}
	if !n.holdArena(target, lock) {
		return n.failArena(op, target)
	}
	copy(dst, buf[offset:])
	lock.unlock()
	n.notifyArena(target, regionID, offset, len(dst), OpGet, imm)
	return op
}

// issueArena admits an origin-side copy to target and returns a handle
// that is complete as it is issued: the copy is the whole operation, so
// Flush has nothing to wait for. When the fault plan absorbs the op (as
// transmit absorbs a packet) or target was declared failed, it returns an
// ordinary op instead, pending until the failure declaration fails it or
// already failed, and false: the caller skips the copy.
func (n *NIC) issueArena(target int, kind OpKind) (*Op, bool) {
	if n.f.inj != nil && !n.f.inj.Admit(n.rank, target) {
		return n.beginOp(target, kind), false
	}
	n.mu.Lock()
	if n.anyPeerFailed && n.peerErr[target] != nil {
		n.mu.Unlock()
		return n.beginOp(target, kind), false
	}
	op := n.newOpLocked(target, kind)
	op.done = true
	n.mu.Unlock()
	return op, true
}

// holdArena takes a peer window's lock for an origin copy. It fails when
// the window's owner is declared failed while the origin waits.
func (n *NIC) holdArena(target int, lock *rwLock) bool {
	contended, failed := lock.lock(n.rank, target, n.f)
	if contended {
		n.regionContention.Add(1)
	}
	return !failed
}

// failArena fails an issued arena op whose target was declared failed
// while the origin waited for its window.
func (n *NIC) failArena(op *Op, target int) *Op {
	op.err = n.PeerError(target)
	if op.err == nil { // declared, not yet recorded at this NIC
		op.err = &PeerFailedError{Observer: n.rank, Rank: target, Reason: "window owner failed"}
	}
	return op
}

// notifyArena sends the notification of an origin-side copy, if imm asks
// for one: a notify packet, which the shm link publishes as one compact
// entry and the target delivers straight to the window's matcher. The
// op's admission (issueArena) covers it, so it skips transmit's.
func (n *NIC) notifyArena(target, regionID, offset, length int, kind OpKind, imm Imm) {
	if !imm.Valid {
		return
	}
	note := newPacket()
	*note = packet{
		kind: pktNotify, origin: n.rank, target: target,
		regionID: regionID, offset: offset, imm: imm,
		operand: uint64(length), compare: uint64(kind),
	}
	n.f.count(note)
	n.f.dispatch(note)
}

// Atomic posts a remote atomic on the uint64 at (target, regionID, offset).
// For AtomicCAS, compare is the expected value and operand the replacement.
// The fetched previous value is available via Op.Result after completion.
// A valid imm notifies the target region's sink (notified atomic).
func (n *NIC) Atomic(p *exec.Proc, target, regionID, offset int, aop AtomicOp, operand, compare uint64, imm Imm) *Op {
	n.checkTarget(target)
	n.f.chargeSend(p)
	op := n.beginOp(target, OpAtomic)
	pkt := newPacket()
	*pkt = packet{
		kind: pktAtomic, origin: n.rank, target: target,
		regionID: regionID, offset: offset, imm: imm,
		aop: aop, operand: operand, compare: compare,
		wireSize: 8, op: op,
	}
	n.f.transmit(pkt)
	return op
}

// Accumulate applies an element-wise float64 reduction of data into (target,
// regionID, offset) at the target, executed by the target NIC (no target CPU
// involvement). A valid imm notifies the target region's sink. Operands are
// encoded into a pooled buffer, recycled once applied.
func (n *NIC) Accumulate(p *exec.Proc, target, regionID, offset int, data []float64, aop AccumOp, imm Imm) *Op {
	n.checkTarget(target)
	n.f.chargeSend(p)
	raw := n.f.pool.get(8 * len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	op := n.beginOp(target, OpAccum)
	pkt := newPacket()
	*pkt = packet{
		kind: pktAccum, origin: n.rank, target: target,
		regionID: regionID, offset: offset, data: raw, pooled: true, imm: imm,
		accOp: aop, wireSize: len(raw), op: op,
	}
	n.f.transmit(pkt)
	return op
}

// PostMsg sends a small control/data message — hdr plus optional payload
// bytes — to target's message queue. Payload bytes are staged in a pooled buffer; the consuming layer should
// hand the buffer back via RecycleMsgData once it has copied the payload
// out (layers that retain Msg.Data simply leave it to the collector).
func (n *NIC) PostMsg(p *exec.Proc, target int, class int, hdr MsgHdr, data []byte, chargeCopy bool) {
	n.checkTarget(target)
	n.f.chargeSend(p)
	cp := n.f.pool.clone(data)
	m := &Msg{Origin: n.rank, Class: class, Hdr: hdr, Data: cp, ChargeCopy: chargeCopy}
	kind := pktCtrl
	if len(cp) > 0 {
		kind = pktData
	}
	pkt := newPacket()
	*pkt = packet{
		kind: kind, origin: n.rank, target: target,
		wireSize: msgHeaderBytes + len(cp), msg: m,
	}
	n.f.transmit(pkt)
}

// AcquireBuf returns a pooled staging buffer of the given length for a
// layer's own payload staging (e.g. the message-passing rendezvous copy).
// Hand it back with ReleaseBuf when done.
func (n *NIC) AcquireBuf(size int) []byte { return n.f.pool.get(size) }

// ReleaseBuf returns a buffer obtained from AcquireBuf (or a Msg payload)
// to the fabric's pool. The caller must not touch it afterwards.
func (n *NIC) ReleaseBuf(b []byte) { n.f.pool.put(b) }

// RecycleMsgData returns m's payload buffer to the pool and clears the
// reference. Consumers call it after copying the payload out; calling it
// at most once per message is the caller's responsibility.
func (n *NIC) RecycleMsgData(m *Msg) {
	if m.Data != nil {
		n.f.pool.put(m.Data)
		m.Data = nil
	}
}

// recycleData releases the packet's payload buffer: pooled copies return
// to the pool; anything else (a link's receive buffer, the origin's own
// buffer on the zero-copy path) is not this packet's to free.
func (n *NIC) recycleData(pkt *packet) {
	if pkt.pooled {
		n.f.pool.put(pkt.data)
	}
	pkt.data, pkt.pooled = nil, false
}

// deliver commits an arriving packet against this NIC. Under Sim it runs
// in kernel context (inline on whichever goroutine holds the baton) at the
// packet's arrival time; under the wall-clock engines it runs on the
// goroutine that sent the packet (in-process) or read its frame (link),
// concurrently with the rank and other senders — payload copies take only
// the target region's lock, queue state only the control-plane mu, and
// replies it sends commit the same way, nested in this call. Every side
// effect of a packet happens here, once: the fabric is lossless and FIFO
// per pair, so nothing arrives twice or out of order. The packet
// descriptor is recycled on return.
func (n *NIC) deliver(pkt *packet) {
	switch pkt.kind {
	case pktPut:
		n.deliverPut(pkt)

	case pktGetReq:
		n.deliverGetReq(pkt)

	case pktGetResp:
		if pkt.op == nil {
			// Distributed fabric: the op this response answers is gone
			// (completed by the peer-failure path, or the response outlived
			// its rank). Nothing to commit into.
			n.recycleData(pkt)
			break
		}
		if !pkt.dstDirect {
			// The copy is unsynchronized: only this rank's receiver for
			// the pair touches dst, and completeOp's mutex publishes it to
			// the origin.
			copy(pkt.op.dst, pkt.data)
		}
		length := int(pkt.operand)
		n.recycleData(pkt)
		n.finishLocal(pkt.op, 0)
		if pkt.notifyBack {
			// Data arrived safely: release the target's buffer with a
			// dedicated notification message (the extra round trip of the
			// unreliable-network protocol).
			note := newPacket()
			*note = packet{
				kind: pktNotify, origin: n.rank, target: pkt.origin,
				regionID: pkt.regionID, offset: pkt.offset,
				imm: pkt.imm, wireSize: 0, operand: uint64(length),
				compare: uint64(OpGet), reply: true,
			}
			n.f.transmit(note)
		}

	case pktAtomic:
		reg := n.region(pkt.regionID)
		if pkt.offset < 0 || pkt.offset+8 > len(reg.buf) {
			panic(fmt.Sprintf("fabric: rank %d: atomic out of bounds: region %d off %d", n.rank, pkt.regionID, pkt.offset))
		}
		reg.lockW()
		old := binary.LittleEndian.Uint64(reg.buf[pkt.offset:])
		switch pkt.aop {
		case AtomicFetchAdd:
			binary.LittleEndian.PutUint64(reg.buf[pkt.offset:], old+pkt.operand)
		case AtomicCAS:
			if old == pkt.compare {
				binary.LittleEndian.PutUint64(reg.buf[pkt.offset:], pkt.operand)
			}
		}
		reg.unlockW()
		reg.notify(pkt.origin, pkt.imm, OpAtomic, pkt.offset, 8)
		n.sendAck(pkt.op, pkt.opID, pkt.origin, old, int64(n.f.cfg.Model.TAtomic))

	case pktAccum:
		reg := n.region(pkt.regionID)
		if pkt.offset < 0 || pkt.offset+len(pkt.data) > len(reg.buf) {
			panic(fmt.Sprintf("fabric: rank %d: accumulate out of bounds: region %d off %d len %d",
				n.rank, pkt.regionID, pkt.offset, len(pkt.data)))
		}
		length := len(pkt.data)
		reg.lockW()
		for i := 0; i+8 <= len(pkt.data); i += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(pkt.data[i:]))
			at := pkt.offset + i
			switch pkt.accOp {
			case AccumSum:
				cur := math.Float64frombits(binary.LittleEndian.Uint64(reg.buf[at:]))
				binary.LittleEndian.PutUint64(reg.buf[at:], math.Float64bits(cur+v))
			case AccumReplace:
				binary.LittleEndian.PutUint64(reg.buf[at:], math.Float64bits(v))
			}
		}
		reg.unlockW()
		n.recycleData(pkt)
		reg.notify(pkt.origin, pkt.imm, OpAccum, pkt.offset, length)
		n.sendAck(pkt.op, pkt.opID, pkt.origin, 0, int64(n.f.cfg.Model.TAtomic))

	case pktAck:
		if pkt.op != nil {
			n.finishLocal(pkt.op, pkt.operand)
		}

	case pktNotify:
		if reg := n.regionOrNil(pkt.regionID); reg != nil {
			reg.notify(pkt.origin, pkt.imm, OpKind(pkt.compare), pkt.offset, int(pkt.operand))
		}

	case pktCtrl, pktData:
		n.mu.Lock()
		wake := n.enqueueMsgLocked(pkt.msg)
		n.mu.Unlock()
		for _, w := range wake {
			w.gate.Broadcast()
		}
	}
	if tr := n.f.cfg.Trace; tr != nil {
		tr(TraceEvent{Kind: pkt.kind.String(), Origin: pkt.origin, Target: pkt.target,
			Bytes: pkt.wireSize, Imm: pkt.imm})
	}
	releasePacket(pkt)
}

// deliverPut commits an arriving put under the region lock, unless the
// link placed it there already, then hands its notification to the
// region's sink.
func (n *NIC) deliverPut(pkt *packet) {
	reg := n.region(pkt.regionID)
	if pkt.offset < 0 || pkt.offset+len(pkt.data) > len(reg.buf) {
		panic(fmt.Sprintf("fabric: rank %d: put out of bounds: region %d off %d len %d (region len %d)",
			n.rank, pkt.regionID, pkt.offset, len(pkt.data), len(reg.buf)))
	}
	if !pkt.placed {
		reg.commit(pkt.offset, pkt.data)
	}
	length := len(pkt.data)
	n.recycleData(pkt)
	reg.notify(pkt.origin, pkt.imm, OpPut, pkt.offset, length)
	n.sendAck(pkt.op, pkt.opID, pkt.origin, 0, 0)
}

// deliverGetReq serves a get at the data holder. The reply buffer is taken
// from the pool *before* any lock is acquired; on the intra-node zero-copy
// path the payload is copied straight from the source region into the
// origin's destination buffer instead (single copy, no bounce buffer).
func (n *NIC) deliverGetReq(pkt *packet) {
	reg := n.region(pkt.regionID)
	length := int(pkt.operand)
	if pkt.offset < 0 || pkt.offset+length > len(reg.buf) {
		panic(fmt.Sprintf("fabric: rank %d: get out of bounds: region %d off %d len %d (region len %d)",
			n.rank, pkt.regionID, pkt.offset, length, len(reg.buf)))
	}
	resp := newPacket()
	*resp = packet{
		kind: pktGetResp, origin: n.rank, target: pkt.origin,
		wireSize: length, op: pkt.op, opID: pkt.opID, operand: uint64(length),
		reply: true,
	}
	if n.f.zeroCopyEligible(n.rank, pkt.origin, length) {
		// The origin may not touch dst until the op completes, so the
		// region-to-destination copy is safe here at the data holder.
		reg.readInto(pkt.offset, pkt.op.dst[:length])
		resp.dstDirect = true
	} else {
		data := n.f.pool.get(length) // pooled before any lock
		reg.readInto(pkt.offset, data)
		resp.data, resp.pooled = data, true
	}
	if pkt.imm.Valid && n.f.cfg.GetNotifyMode == GetNotifyDeferred {
		// Unreliable network (paper §VIII): the buffer-reusable
		// notification may only fire once the data has safely arrived
		// at the origin; the origin then notifies us back.
		resp.imm = pkt.imm
		resp.regionID = pkt.regionID
		resp.offset = pkt.offset
		resp.notifyBack = true
	} else if pkt.imm.Valid && n.f.cfg.GetNotifyMode == GetNotifyOriginOrdered {
		// The origin injected a separate ordered notification write;
		// do not notify here.
	} else {
		// Reliable network with read-with-immediate: notify as soon as
		// the data has been read here at the data holder.
		reg.notify(pkt.origin, pkt.imm, OpGet, pkt.offset, length)
	}
	n.f.transmit(resp)
}

// notify hands the notification of an operation carrying an immediate to
// the region's sink, or, before InstallNotifySink gave the region one,
// keeps it on the region in arrival order. It takes no NIC-wide lock.
func (r *MemRegion) notify(origin int, imm Imm, kind OpKind, offset, length int) {
	if !imm.Valid {
		return
	}
	cqe := CQE{Origin: origin, Imm: imm.Val, Kind: kind, RegionID: r.ID, Offset: offset, Len: length}
	r.notifyMu.Lock()
	sink := r.sink
	if sink == nil {
		r.early = append(r.early, cqe)
	}
	r.notifyMu.Unlock()
	if sink != nil {
		sink.Deliver(cqe)
	}
}

// sendAck returns a remote-completion acknowledgement to the origin. opID
// is the wire identity of op, echoed for cross-process completions (the
// pointer itself is meaningless outside the origin process). An origin
// across a link gets it in the ack frame that ends the read (holdAck).
func (n *NIC) sendAck(op *Op, opID uint64, origin int, value uint64, extraDelay int64) {
	if f := n.f; f.link != nil && origin != f.self {
		f.holdAck(origin, opID, value)
		return
	}
	pkt := newPacket()
	*pkt = packet{
		kind: pktAck, origin: n.rank, target: origin,
		wireSize: 0, op: op, opID: opID, operand: value, extraDelay: extraDelay,
		reply: true,
	}
	n.f.transmit(pkt)
}

// finishLocal marks op complete at its origin NIC (this NIC).
func (n *NIC) finishLocal(op *Op, value uint64) {
	op.nic.completeOp(op, value)
}

// Load64 atomically reads the uint64 at off in a local region, with a
// happens-before edge against concurrent remote deliveries — the primitive
// a busy-polling consumer (e.g. the paper's One Sided ring-buffer protocol)
// uses to watch its own window memory. Synchronization is per region: a
// polling consumer never contends with traffic to other regions.
func (r *MemRegion) Load64(off int) uint64 {
	r.lockR()
	v := binary.LittleEndian.Uint64(r.buf[off:])
	r.unlockR()
	return v
}

// Store64 writes the uint64 at off in a local region under the region's
// write lock.
func (r *MemRegion) Store64(off int, v uint64) {
	r.lockW()
	binary.LittleEndian.PutUint64(r.buf[off:], v)
	r.unlockW()
}

// RegionLockContention returns the number of region-lock acquisitions on
// this NIC that found the lock already held — how often concurrent data
// traffic actually collided on one region after lock sharding.
func (n *NIC) RegionLockContention() int64 {
	return n.regionContention.Load()
}

// classQLocked returns class's bucket, creating it on first use.
func (n *NIC) classQLocked(class int) *msgClassQ {
	q := n.msgQs[class]
	if q == nil {
		if n.msgQs == nil {
			n.msgQs = make(map[int]*msgClassQ)
		}
		q = &msgClassQ{}
		n.msgQs[class] = q
	}
	return q
}

// enqueueMsgLocked buckets an arriving message and collects the waiters
// to wake: exactly those parked on the message's class. Broadcasts happen
// after the caller drops n.mu, per the Gate contract convention.
func (n *NIC) enqueueMsgLocked(m *Msg) []*msgWaiter {
	q := n.classQLocked(m.Class)
	n.msgSeq++
	q.q.Push(msgEntry{m: m, seq: n.msgSeq})
	n.msgDepth++
	if n.msgDepth > n.msgHighWater {
		n.msgHighWater = n.msgDepth
	}
	if d := q.q.Len(); d > q.highWater {
		q.highWater = d
	}
	var wake []*msgWaiter
	for _, w := range q.waiters {
		if !w.ready {
			w.ready = true
			wake = append(wake, w)
		}
	}
	return wake
}

// popMsgLocked removes the oldest queued message across the given
// classes: the per-class FIFO heads are compared by arrival sequence, so
// a multi-class consumer sees the same arrival order a single shared
// queue would have given it.
func (n *NIC) popMsgLocked(classes []int) (*Msg, bool) {
	var best *msgClassQ
	for _, c := range classes {
		q := n.msgQs[c]
		if q == nil || q.q.Len() == 0 {
			continue
		}
		if best == nil || q.q.Front().seq < best.q.Front().seq {
			best = q
		}
	}
	if best == nil {
		return nil, false
	}
	n.msgDepth--
	return best.q.Pop().m, true
}

// acquireMsgWaiterLocked registers a (pooled) waiter record under every
// class in classes.
func (n *NIC) acquireMsgWaiterLocked(classes []int) *msgWaiter {
	var w *msgWaiter
	if k := len(n.msgWaiterPool); k > 0 {
		w = n.msgWaiterPool[k-1]
		n.msgWaiterPool = n.msgWaiterPool[:k-1]
	} else {
		w = &msgWaiter{gate: n.f.env.NewGate(&n.mu)}
	}
	w.ready = false
	w.classes = append(w.classes[:0], classes...)
	for _, c := range classes {
		q := n.classQLocked(c)
		q.waiters = append(q.waiters, w)
	}
	return w
}

// releaseMsgWaiterLocked deregisters w from its classes and returns it to
// the pool. The waiter lists are tiny (one entry per concurrently parked
// consumer on the class), so the removal scan is cheap.
func (n *NIC) releaseMsgWaiterLocked(w *msgWaiter) {
	for _, c := range w.classes {
		q := n.msgQs[c]
		for i, o := range q.waiters {
			if o == w {
				q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
				break
			}
		}
	}
	w.classes = w.classes[:0]
	n.msgWaiterPool = append(n.msgWaiterPool, w)
}

// waitMsgLocked parks p until a message in one of classes is available
// and pops it. Queued messages drain even after a peer failure; only a
// wait that would otherwise park forever panics with the failure (the
// job-fatal unblocking policy: any protocol blocked on messages may be
// waiting on the dead rank, and teardown beats a hang).
func (n *NIC) waitMsgLocked(p *exec.Proc, classes []int) *Msg {
	for {
		if m, ok := n.popMsgLocked(classes); ok {
			return m
		}
		if n.anyPeerFailed {
			panic(n.peerPanicLocked())
		}
		w := n.acquireMsgWaiterLocked(classes)
		for !w.ready && !n.anyPeerFailed {
			w.gate.Wait(p)
		}
		n.releaseMsgWaiterLocked(w)
	}
}

// PollMsgClass removes and returns the oldest queued message of class.
// The probe touches only that class's bucket — O(1) regardless of what
// other classes have queued.
func (n *NIC) PollMsgClass(class int) (*Msg, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.popMsgLocked([]int{class})
}

// PollMsgClasses removes and returns the oldest queued message whose
// class is in classes, in cross-class arrival order.
func (n *NIC) PollMsgClasses(classes ...int) (*Msg, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.popMsgLocked(classes)
}

// WaitMsgClass parks p until a message of class is available, removes it,
// and returns it. Arrivals in other classes do not wake the waiter.
func (n *NIC) WaitMsgClass(p *exec.Proc, class int) *Msg {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.waitMsgLocked(p, []int{class})
}

// WaitMsgClasses parks p until a message in any of classes is available
// and returns the oldest such arrival.
func (n *NIC) WaitMsgClasses(p *exec.Proc, classes ...int) *Msg {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.waitMsgLocked(p, classes)
}

// MsgDepth returns the number of queued messages across all classes.
func (n *NIC) MsgDepth() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.msgDepth
}

// MsgClassDepth returns the number of queued messages of one class.
func (n *NIC) MsgClassDepth(class int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if q := n.msgQs[class]; q != nil {
		return q.q.Len()
	}
	return 0
}

// MsgHighWater returns the maximum total message-queue depth observed
// across all class buckets. Since the bucketed engine dispatches by
// class, depth no longer translates into scan cost — the mark is a
// protocol-pressure statistic (how far consumers fell behind arrivals),
// not a matching-cost bound.
func (n *NIC) MsgHighWater() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.msgHighWater
}

// MsgClassHighWater returns the per-class maximum queue depths observed,
// keyed by message class. Only classes that ever queued a message appear.
func (n *NIC) MsgClassHighWater() map[int]int {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[int]int, len(n.msgQs))
	for c, q := range n.msgQs {
		out[c] = q.highWater
	}
	return out
}

// InstallNotifySink makes sink the receiver of every notification for
// regionID from now on, and returns those that arrived before it, in
// arrival order. The caller must ingest them before it releases whatever
// lock serializes the sink's Deliver, or a later notification overtakes
// them.
func (n *NIC) InstallNotifySink(regionID int, sink NotifySink) []CQE {
	r := n.region(regionID)
	r.notifyMu.Lock()
	defer r.notifyMu.Unlock()
	r.sink = sink
	early := r.early
	r.early = nil
	return early
}

// RemoveNotifySink detaches regionID's sink. Notifications that arrive
// afterwards stay on the region until Deregister drops it.
func (n *NIC) RemoveNotifySink(regionID int) {
	if r := n.regionOrNil(regionID); r != nil {
		r.notifyMu.Lock()
		r.sink = nil
		r.notifyMu.Unlock()
	}
}

// Pending returns the number of operations to target awaiting remote
// completion.
func (n *NIC) Pending(target int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.outstanding[target]
}

// Flush parks p until every operation this NIC issued to target is remotely
// complete (MPI_Win_flush semantics).
func (n *NIC) Flush(p *exec.Proc, target int) {
	n.checkTarget(target)
	n.mu.Lock()
	for n.outstanding[target] > 0 {
		n.opFlushWaiters++
		n.opGate.Wait(p)
		n.opFlushWaiters--
	}
	n.mu.Unlock()
}

// FlushAll parks p until every outstanding operation from this NIC is
// remotely complete (MPI_Win_flush_all semantics).
func (n *NIC) FlushAll(p *exec.Proc) {
	n.mu.Lock()
	for n.totalOut > 0 {
		n.opFlushWaiters++
		n.opGate.Wait(p)
		n.opFlushWaiters--
	}
	n.mu.Unlock()
}
