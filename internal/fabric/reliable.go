package fabric

// The reliable-delivery protocol layer: per-(origin,target) sequence
// numbers, payload checksums, cumulative ack / gap nack with retransmission
// under exponential backoff, a dedup/reorder window for exactly-once
// delivery, and a retransmit-budget peer-failure detector. It sits between
// transmit (which assigns sequence numbers and retains the packet until it
// is link-acked) and NIC.deliverNow (which commits exactly the in-order
// prefix), with the fault-injection plane (internal/fault) deciding what
// the wire does to each individual transmission.
//
// The layer only exists when the fabric is configured with a fault plan
// (or ReliabilityConfig.Force): on the default lossless configuration no
// sequence numbers, checksums, acks, or timers are created anywhere, so
// the Sim engine's zero-fault virtual timings are bit-identical to a build
// without this file.
//
// Ownership rules under reliability (they invert the lossless ones):
//
//   - the *origin* keeps the sequenced packet — and its pooled payload —
//     until the cumulative ack covers it; what goes on the wire is a clone
//     marked non-pooled, so the target's recycleData never frees a buffer
//     a retransmission still needs;
//   - corruption is applied to a pooled *copy* of the payload, never to
//     the retained original;
//   - inline ring entries copy the payload (the ring may outlive the
//     origin's retention), and the intra-node zero-copy path is disabled.
//
// Exactly-once: every side effect of a packet (memory commit, CQE,
// message enqueue, op completion) happens in deliverNow, and ingress
// invokes deliverNow only when a packet's sequence number equals the
// pair's monotonically increasing expected counter — duplicates are below
// it, stragglers wait in the window above it, so each sequence number is
// committed at most once; retransmission makes it at least once.

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/simtime"
	"repro/internal/wire"
)

// ErrPeerFailed is the sentinel all peer-failure errors unwrap to; check
// with errors.Is. It surfaces through Op.Err at op granularity and as a
// panic (converted to the run error) from blocked waits that can never be
// satisfied.
var ErrPeerFailed = errors.New("peer failed")

// PeerFailedError reports a detected rank failure.
type PeerFailedError struct {
	// Observer is the rank whose retransmit budget detected the failure.
	Observer int
	// Rank is the failed rank.
	Rank int
	// Reason describes the detection (e.g. "retransmit budget exhausted").
	Reason string
}

func (e *PeerFailedError) Error() string {
	return fmt.Sprintf("fabric: peer rank %d failed (detected by rank %d: %s)", e.Rank, e.Observer, e.Reason)
}

// Unwrap ties the error to ErrPeerFailed for errors.Is.
func (e *PeerFailedError) Unwrap() error { return ErrPeerFailed }

// ReliabilityConfig tunes the reliable-delivery layer. The zero value
// means "defaults"; the layer as a whole activates only when the fabric
// has a fault plan or Force is set.
type ReliabilityConfig struct {
	// Force enables the layer even without a fault plan (tests that want
	// the protocol machinery on a perfect wire).
	Force bool
	// RTO is the base retransmission timeout (default 10µs: ~3x the
	// modeled inter-node round trip, so a lossless stream never times
	// out in virtual time, while a tail loss — the one case the gap-nack
	// fast path cannot cover — stalls as briefly as possible).
	RTO simtime.Duration
	// RTOMax caps the exponential backoff (default 400µs).
	RTOMax simtime.Duration
	// MaxAttempts is the retransmit budget: a pair that makes no ack
	// progress for this many consecutive timeouts declares the peer
	// failed (default 12).
	MaxAttempts int
	// Window is the receive-side reorder/dedup window in packets
	// (default 512); stragglers beyond it are dropped and retransmitted.
	Window int
}

func (c ReliabilityConfig) withDefaults() ReliabilityConfig {
	if c.RTO == 0 {
		c.RTO = 10 * simtime.Microsecond
	}
	if c.RTOMax == 0 {
		c.RTOMax = 400 * simtime.Microsecond
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 12
	}
	if c.Window == 0 {
		c.Window = 512
	}
	return c
}

// TimeoutBudget returns the worst-case time between a peer going silent
// and its failure being declared: the sum of the backed-off timeouts.
func (c ReliabilityConfig) TimeoutBudget() simtime.Duration {
	c = c.withDefaults()
	var total simtime.Duration
	rto := c.RTO
	for i := 0; i < c.MaxAttempts; i++ {
		total += rto
		rto *= 2
		if rto > c.RTOMax {
			rto = c.RTOMax
		}
	}
	return total
}

// FaultStats aggregates the fault plane's injected faults and the
// reliability layer's repairs. Link-layer traffic (acks, nacks,
// retransmissions) is deliberately excluded from Fabric.Stats so protocol
// audits keep counting logical transactions; it is all accounted here.
type FaultStats struct {
	// Injected is what the fault plane did to the wire.
	Injected fault.Stats
	// Retransmits counts packets sent again after a timeout or nack.
	Retransmits int64
	// LinkAcks / LinkNacks count link-layer control packets sent.
	LinkAcks  int64
	LinkNacks int64
	// DupsDropped counts arrivals below the expected sequence number
	// (duplicates discarded for exactly-once delivery).
	DupsDropped int64
	// CorruptDropped counts arrivals failing their payload checksum.
	CorruptDropped int64
	// OutOfWindowDropped counts stragglers beyond the reorder window.
	OutOfWindowDropped int64
	// PeersFailed counts ranks declared failed.
	PeersFailed int64
}

// pairKey identifies one directed (origin, target) stream.
type pairKey struct{ origin, target int }

// relTx is the origin-side state of one directed stream: the sequenced
// packets not yet covered by a cumulative ack, retained with their
// payloads for retransmission.
type relTx struct {
	nextSeq    uint64
	unacked    []*packet // ascending seq
	attempts   int       // consecutive timeouts without ack progress
	timerArmed bool
}

// relRx is the target-side state: the next expected sequence number, the
// out-of-order window buffering stragglers until the gap fills, and the
// in-order packets released from it but not yet delivered.
type relRx struct {
	next     uint64 // next seq to deliver (first assigned seq is 1)
	window   map[uint64]*packet
	lastNack uint64 // highest expected-seq we already nacked (suppress spam)

	// Under the wall-clock engines ingress runs on whichever goroutine
	// sent or read the packet — a rank, a timer, a delivery replying to
	// its own pair — so several can find the pair deliverable at once.
	// The first sets draining and delivers ready until it is empty; the
	// others only append to ready. Commits stay serial and in sequence.
	draining bool
	ready    []*packet
}

// reliability is the fabric-wide protocol engine. One mutex guards all
// pair state; it is never held across a wire send or a delivery (a
// delivery sends its own replies, which may re-enter ingress).
type reliability struct {
	f   *Fabric
	cfg ReliabilityConfig
	inj *fault.Injector // nil when Force without a plan

	mu     sync.Mutex
	tx     map[pairKey]*relTx
	rx     map[pairKey]*relRx
	failed map[int]error
	closed bool

	retransmits    atomic.Int64
	linkAcks       atomic.Int64
	linkNacks      atomic.Int64
	dupsDropped    atomic.Int64
	corruptDropped atomic.Int64
	oowDropped     atomic.Int64
	peersFailed    atomic.Int64
}

func newReliability(f *Fabric, cfg ReliabilityConfig, inj *fault.Injector) *reliability {
	return &reliability{
		f: f, cfg: cfg.withDefaults(), inj: inj,
		tx:     make(map[pairKey]*relTx),
		rx:     make(map[pairKey]*relRx),
		failed: make(map[int]error),
	}
}

// relChecksum covers the payload bytes a packet carries (direct data and
// message payload); header fields are assumed protected by the simulated
// link's own CRC.
func relChecksum(pkt *packet) uint32 {
	c := crc32.ChecksumIEEE(pkt.data)
	if pkt.msg != nil && len(pkt.msg.Data) > 0 {
		c = crc32.Update(c, crc32.IEEETable, pkt.msg.Data)
	}
	return c
}

// wireClone copies a retained packet descriptor for one transmission
// attempt. The clone shares the payload but does not own it (pooled is
// cleared), so whatever happens to it on the wire or at the target never
// frees the origin's retained buffer.
func wireClone(pkt *packet) *packet {
	c := newPacket()
	*c = *pkt
	c.pooled = false
	return c
}

// send sequences an outbound packet, retains it for retransmission, and
// puts a clone on the wire. Called from transmit for every non-link
// packet when the layer is active.
func (rl *reliability) send(pkt *packet) {
	pair := pairKey{pkt.origin, pkt.target}
	rl.mu.Lock()
	if err := rl.failed[pkt.target]; err != nil {
		rl.mu.Unlock()
		rl.failOutbound(pkt, err)
		return
	}
	tx := rl.tx[pair]
	if tx == nil {
		tx = &relTx{}
		rl.tx[pair] = tx
	}
	tx.nextSeq++
	pkt.rel = true
	pkt.seq = tx.nextSeq
	pkt.csum = relChecksum(pkt)
	if pkt.pooled {
		// Retained payloads are handed to the GC instead of the pool: a
		// slow duplicate or retransmit clone may still be reading the
		// buffer when the cumulative ack releases it, and recycling would
		// put a new transfer's bytes under that reader — a real data race,
		// not just a checksum hiccup.
		pkt.pooled = false
	}
	tx.unacked = append(tx.unacked, pkt)
	clone := wireClone(pkt)
	rl.armTimerLocked(pair, tx)
	rl.mu.Unlock()
	rl.wireSend(clone)
}

// failOutbound disposes of a packet bound for an already-failed peer:
// its op (if any) completes with the failure error, its staged payload
// returns to the pool. Message payloads are not recycled — whether the
// consumer saw them is unknowable once a peer is failed, and a double
// recycle would alias live buffers; the bounded leak is the safe side.
func (rl *reliability) failOutbound(pkt *packet, err error) {
	op := pkt.op
	if pkt.pooled {
		rl.f.pool.put(pkt.data)
	}
	releasePacket(pkt)
	if op != nil {
		op.nic.failOp(op, err)
	}
}

// wireSend runs one transmission attempt through the fault plane and
// dispatches whatever survives. pkt must be a wire clone or a link
// control packet — never a retained original.
func (rl *reliability) wireSend(pkt *packet) {
	var d fault.Decision
	if rl.inj != nil {
		d = rl.inj.Decide(pkt.origin, pkt.target, pkt.kind.String())
	}
	if d.Corrupt && len(pkt.data) == 0 {
		// Nothing to flip in the modeled payload: a corrupted header would
		// fail the link CRC and be dropped anyway, so degrade to a drop.
		d.Corrupt, d.Drop = false, true
	}
	if d.Drop {
		rl.discardWire(pkt)
		return
	}
	if d.Duplicate {
		// Duplicate before corrupting so the copies don't share a
		// corrupted buffer (each arrival is disposed of independently).
		rl.f.dispatch(wireClone(pkt), d.DelayNs)
	}
	if d.Corrupt {
		cp := rl.f.pool.get(len(pkt.data))
		copy(cp, pkt.data)
		cp[int(d.CorruptPos%uint64(len(cp)))] ^= 0x20
		pkt.data, pkt.pooled = cp, true // ingress recycles it at the checksum drop
	}
	rl.f.dispatch(pkt, d.DelayNs)
}

// discardWire disposes of a transmission attempt the fault plane dropped.
// Only payloads the attempt itself owns (corrupt copies) are recycled;
// shared ones belong to the retained original.
func (rl *reliability) discardWire(pkt *packet) {
	if pkt.pooled {
		rl.f.pool.put(pkt.data)
	}
	releasePacket(pkt)
}

// sendCtl emits a link-layer ack or nack. Control packets are unsequenced
// (kind check precedes the rel check at ingress) and uncounted in
// Fabric.Stats, but they do traverse the faulty wire. They are produced by
// delivery (ingress), so they are replies: a link send never parks.
func (rl *reliability) sendCtl(kind pktKind, from, to int, seq uint64) {
	if kind == pktLinkAck {
		rl.linkAcks.Add(1)
	} else {
		rl.linkNacks.Add(1)
	}
	pkt := newPacket()
	*pkt = packet{kind: kind, origin: from, target: to, operand: seq, reply: true}
	rl.wireSend(pkt)
}

// ingress is the target-side protocol engine: dedup, checksum, reorder,
// in-order commit, ack/nack generation. The in-order prefix joins the
// pair's ready list, and unless another goroutine is already draining the
// pair this one delivers it via deliverNow after dropping the protocol
// lock (delivery takes region locks and sends replies).
//
// Duplicates are discarded on sequence number alone, *before* any payload
// byte is read: the first delivery may already have handed the payload to
// a consumer that recycled it (Msg.Data), so even a checksum read over a
// duplicate would race the buffer's next owner.
func (rl *reliability) ingress(n *NIC, pkt *packet) {
	pair := pairKey{pkt.origin, n.rank}
	ctlKind := wire.KindInvalid
	var ctlSeq uint64

	rl.mu.Lock()
	rx := rl.rx[pair]
	if rx == nil {
		rx = &relRx{next: 1, window: make(map[uint64]*packet)}
		rl.rx[pair] = rx
	}
	switch {
	case pkt.seq < rx.next:
		// Duplicate of something already committed: drop it, but re-ack —
		// the origin is retransmitting because our ack was lost.
		rl.dupsDropped.Add(1)
		ctlKind, ctlSeq = pktLinkAck, rx.next-1

	case pkt.seq == rx.next:
		if relChecksum(pkt) != pkt.csum {
			rl.corruptDropped.Add(1)
			if rx.lastNack != rx.next {
				rx.lastNack = rx.next
				ctlKind, ctlSeq = pktLinkNack, rx.next
			}
			break
		}
		rx.ready = append(rx.ready, pkt)
		pkt = nil
		rx.next++
		for {
			b := rx.window[rx.next]
			if b == nil {
				break
			}
			delete(rx.window, rx.next)
			rx.ready = append(rx.ready, b)
			rx.next++
		}
		// Delivery moved the gap: clear the nack suppression so the next
		// gap (if any) gets its own nack, and cumulatively ack the prefix.
		rx.lastNack = 0
		ctlKind, ctlSeq = pktLinkAck, rx.next-1
		if len(rx.window) > 0 {
			// Stragglers above a fresh gap mean another loss in the same
			// burst. At a burst tail no further arrival will ever nack it,
			// so signal it now rather than stall a full RTO (a nack
			// cumulatively acks everything below its operand anyway).
			rx.lastNack = rx.next
			ctlKind, ctlSeq = pktLinkNack, rx.next
		}

	default: // future: verify, buffer in the window, nack the gap once
		switch {
		case relChecksum(pkt) != pkt.csum:
			rl.corruptDropped.Add(1)
		case pkt.seq-rx.next > uint64(rl.cfg.Window):
			rl.oowDropped.Add(1)
		case rx.window[pkt.seq] != nil:
			rl.dupsDropped.Add(1)
		default:
			rx.window[pkt.seq] = pkt
			pkt = nil // retained in the window, checksum already verified
		}
		if rx.lastNack != rx.next {
			rx.lastNack = rx.next
			ctlKind, ctlSeq = pktLinkNack, rx.next
		}
	}
	drain := !rx.draining && len(rx.ready) > 0
	if drain {
		rx.draining = true
	}
	rl.mu.Unlock()

	if pkt != nil {
		// A dropped duplicate / corrupt / out-of-window straggler. Corrupt
		// copies own their pooled buffer; everything else owns only the
		// descriptor (the payload lives at the origin).
		rl.discardWire(pkt)
	}
	if drain {
		rl.drain(n, rx)
	}
	if ctlKind != wire.KindInvalid {
		rl.sendCtl(ctlKind, n.rank, pair.origin, ctlSeq)
	}
}

// drain delivers rx's ready packets in order until none is left, then
// clears the draining flag its caller set. Packets another goroutine
// readies meanwhile — including a reply this delivery sends to its own
// pair — are appended to ready and delivered here too.
func (rl *reliability) drain(n *NIC, rx *relRx) {
	rl.mu.Lock()
	for len(rx.ready) > 0 {
		batch := rx.ready
		rx.ready = nil
		rl.mu.Unlock()
		for _, p := range batch {
			n.deliverNow(p)
		}
		rl.mu.Lock()
	}
	rx.draining = false
	rl.mu.Unlock()
}

// handleLinkCtl processes an ack or nack at the data sender. The control
// packet's (origin, target) are the *reverse* of the data direction.
func (rl *reliability) handleLinkCtl(pkt *packet) {
	pair := pairKey{origin: pkt.target, target: pkt.origin}
	nack := pkt.kind == pktLinkNack
	// A nack carries the receiver's expected seq: everything below it is
	// cumulatively acknowledged, the carried seq itself is the gap.
	ackTo := pkt.operand
	if nack {
		ackTo = pkt.operand - 1
	}
	releasePacket(pkt)
	rl.applyAck(pair, ackTo, nack)
}

// applyAck commits a cumulative ack to the sender-side state of the
// directed stream pair, releasing covered retained packets and
// fast-retransmitting a nacked gap.
func (rl *reliability) applyAck(pair pairKey, ackTo uint64, nack bool) {
	var released []*packet
	var retrans *packet
	rl.mu.Lock()
	tx := rl.tx[pair]
	if tx == nil {
		rl.mu.Unlock()
		return
	}
	i := 0
	for i < len(tx.unacked) && tx.unacked[i].seq <= ackTo {
		released = append(released, tx.unacked[i])
		tx.unacked[i] = nil
		i++
	}
	if i > 0 {
		tx.unacked = append(tx.unacked[:0], tx.unacked[i:]...)
		tx.attempts = 0 // ack progress resets the failure budget
	}
	if nack {
		for _, sp := range tx.unacked {
			if sp.seq == ackTo+1 {
				retrans = wireClone(sp) // fast retransmit of the reported gap
				retrans.reply = true    // sent from delivery: must not park
				break
			}
			if sp.seq > ackTo+1 {
				break
			}
		}
	}
	rl.mu.Unlock()

	for _, sp := range released {
		rl.releaseRetained(sp)
	}
	if retrans != nil {
		rl.retransmits.Add(1)
		rl.wireSend(retrans)
	}
}

// releaseRetained frees a retained original once the target acknowledged
// it (or its stream died). The origin owns the staged payload under
// reliability; message payload buffers stay with the consumer-side
// recycle contract.
func (rl *reliability) releaseRetained(pkt *packet) {
	if pkt.pooled {
		rl.f.pool.put(pkt.data)
	}
	releasePacket(pkt)
}

// rto returns the backed-off timeout for the given consecutive-failure
// count.
func (rl *reliability) rto(attempts int) simtime.Duration {
	d := rl.cfg.RTO << uint(attempts)
	if d <= 0 || d > rl.cfg.RTOMax {
		d = rl.cfg.RTOMax
	}
	return d
}

// armTimerLocked schedules the pair's retransmission timer if it is not
// already pending. Caller holds rl.mu.
func (rl *reliability) armTimerLocked(pair pairKey, tx *relTx) {
	if tx.timerArmed || len(tx.unacked) == 0 {
		return
	}
	tx.timerArmed = true
	rl.f.env.Schedule(rl.rto(tx.attempts), exec.PrioWake, func() { rl.onTimer(pair) })
}

// onTimer fires a pair's retransmission timeout: resend everything
// unacked, back off, and declare the peer failed once the budget is
// exhausted with zero ack progress.
func (rl *reliability) onTimer(pair pairKey) {
	rl.mu.Lock()
	tx := rl.tx[pair]
	if tx == nil {
		rl.mu.Unlock()
		return
	}
	tx.timerArmed = false
	if rl.closed || len(tx.unacked) == 0 || rl.failed[pair.target] != nil {
		rl.mu.Unlock()
		return
	}
	tx.attempts++
	if tx.attempts > rl.cfg.MaxAttempts {
		rl.mu.Unlock()
		rl.declarePeerFailed(pair.origin, pair.target,
			fmt.Sprintf("retransmit budget exhausted after %d timeouts", rl.cfg.MaxAttempts))
		return
	}
	clones := make([]*packet, len(tx.unacked))
	for i, sp := range tx.unacked {
		clones[i] = wireClone(sp)
	}
	rl.armTimerLocked(pair, tx)
	rl.mu.Unlock()
	rl.retransmits.Add(int64(len(clones)))
	for _, c := range clones {
		rl.wireSend(c)
	}
}

// declarePeerFailed records a rank failure (idempotently), releases all
// protocol state involving it, fails every pending op targeting it on
// every NIC, wakes every blocked waiter, and runs the configured failure
// hook.
func (rl *reliability) declarePeerFailed(observer, failed int, reason string) {
	err := &PeerFailedError{Observer: observer, Rank: failed, Reason: reason}
	var release []*packet
	rl.mu.Lock()
	if rl.closed || rl.failed[failed] != nil {
		rl.mu.Unlock()
		return
	}
	rl.failed[failed] = err
	for pk, tx := range rl.tx {
		if pk.target != failed {
			continue
		}
		for _, sp := range tx.unacked {
			release = append(release, sp)
		}
		tx.unacked = nil
	}
	for pk, rx := range rl.rx {
		if pk.origin != failed {
			continue
		}
		for s, bp := range rx.window {
			delete(rx.window, s)
			release = append(release, bp)
		}
	}
	rl.mu.Unlock()
	rl.peersFailed.Add(1)
	for _, sp := range release {
		rl.releaseRetained(sp)
	}
	if rl.f.link != nil {
		rl.f.netSweepFailed(failed)
	}
	for _, n := range rl.f.nics {
		if n == nil {
			continue // distributed fabric: remote NICs live in other processes
		}
		n.notePeerFailure(failed, err)
	}
	if hook := rl.f.cfg.FailureHook; hook != nil {
		hook(observer, failed, err)
	}
}

// peerError returns the recorded failure of rank, if any.
func (rl *reliability) peerError(rank int) error {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.failed[rank]
}

// close makes pending and future timers inert (end of run).
func (rl *reliability) close() {
	rl.mu.Lock()
	rl.closed = true
	rl.mu.Unlock()
}

func (rl *reliability) stats() FaultStats {
	st := FaultStats{
		Retransmits:        rl.retransmits.Load(),
		LinkAcks:           rl.linkAcks.Load(),
		LinkNacks:          rl.linkNacks.Load(),
		DupsDropped:        rl.dupsDropped.Load(),
		CorruptDropped:     rl.corruptDropped.Load(),
		OutOfWindowDropped: rl.oowDropped.Load(),
		PeersFailed:        rl.peersFailed.Load(),
	}
	if rl.inj != nil {
		st.Injected = rl.inj.Stats()
	}
	return st
}
