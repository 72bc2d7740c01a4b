package fabric

// The distributed engine seam: a Fabric whose remote NICs live in other OS
// processes, reached through a Link (netfab.Mesh over TCP, shmfab.Mesh over
// shared-memory segment rings). Only the local rank's NIC exists; dispatch
// routes any packet addressed to a remote rank through netSend (packet →
// wire.Frame → link) and inbound frames re-enter through ingestFrame (frame
// → packet → committed on the link's rx goroutine before rx returns). No
// receive lane sits between the bytes and the commit: the reader is the
// target NIC, as in the paper, and per-pair FIFO is the stream's own order.
// A self-targeted packet never reaches the link: like every packet of the
// in-process Real engine it commits on the goroutine that sent it.
//
// The one rule that makes inline delivery safe: a send issued from delivery
// never parks. Acks, get responses and notify-back notes are produced on
// the reading goroutine; if it blocked on a full link it would stop reading
// every stream, the peer's reader would do the same, and the job would
// wedge. Such packets are marked reply and leave through Link.SendReply,
// which queues what the link cannot take at once. The queue is bounded by
// what the peer has outstanding against us: its posted get bytes (for which
// it already holds destination memory) plus one ack per put in flight
// (which its own send-side bound limits).
//
// A Link is lossless and FIFO per pair in Send-call order — a TCP stream
// and an SPSC ring both are, like every other fabric's wire. What a link
// cannot do by itself is say that a peer died; that is the Link's peerDown
// callback (connection loss, or a stream/segment whose heartbeat stalled —
// the hung process), which funnels into declarePeerFailed, the one way a
// peer fails on every engine.
//
// Op handles cannot cross a process boundary, so the origin registers each
// op under a process-local wire ID at post time (transmit); acks and get
// responses echo the ID and ingestFrame resolves it back to the handle. IDs are
// never reused (monotonic counter), so a stale echo after the op completed
// resolves to nothing and the packet is dropped by deliver's nil guard.

import (
	"errors"
	"fmt"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/wire"
)

// ErrPeerFailed is the sentinel all peer-failure errors unwrap to; check
// with errors.Is. It surfaces through Op.Err at op granularity and as a
// panic (converted to the run error) from blocked waits that can never be
// satisfied.
var ErrPeerFailed = errors.New("peer failed")

// PeerFailedError reports a detected rank failure.
type PeerFailedError struct {
	// Observer is the local rank the failure was declared at.
	Observer int
	// Rank is the failed rank.
	Rank int
	// Reason describes the detection (e.g. "link down: heartbeat stalled").
	Reason string
}

func (e *PeerFailedError) Error() string {
	return fmt.Sprintf("fabric: peer rank %d failed (detected by rank %d: %s)", e.Rank, e.Observer, e.Reason)
}

// Unwrap ties the error to ErrPeerFailed for errors.Is.
func (e *PeerFailedError) Unwrap() error { return ErrPeerFailed }

// Link is the cross-process transport a distributed fabric sends through.
// netfab.Mesh satisfies it structurally; the fabric never imports netfab,
// keeping the transport a leaf package.
type Link interface {
	// Self returns the local rank, N the job size.
	Self() int
	N() int
	// Send writes one frame to target. It must not retain fr or its
	// slices after returning. Frames to one target arrive exactly once, in
	// the order of the Send and SendReply calls. Send may block while the
	// link is full (rank context: that is the backpressure).
	Send(target int, fr *wire.Frame) error
	// SendReply is Send for frames produced by delivery on the rx
	// goroutine: it never parks, queueing whatever the link cannot take
	// at once, and it is exempt from Send's bound on queued bytes.
	SendReply(target int, fr *wire.Frame) error
	// Start installs the receive callbacks: rx for every data/control
	// frame (its slices alias a reused buffer, valid until rx returns),
	// peerDown exactly once per peer whose stream ends or goes silent
	// without a clean goodbye.
	Start(rx func(from int, fr *wire.Frame), peerDown func(rank int, err error))
}

// NewDistributed creates the local-rank slice of a distributed fabric on
// top of an established link. env must be a wall-clock engine (DistEnv).
// cfg.Ranks/RanksPerNode are overridden by the link geometry (one rank per
// process means one rank per "node": the SHM and inline fast paths never
// trigger). A fault plan gets an injector but no declaring down hook: the
// peers' link liveness detectors convict a failed rank, so the caller
// mirrors its rank's failure into the link (runtime's SuppressHeartbeat).
func NewDistributed(env exec.Env, cfg Config, link Link) *Fabric {
	if !env.Mode().Wallclock() {
		panic("fabric: NewDistributed needs a wall-clock engine")
	}
	cfg.Ranks = link.N()
	cfg.RanksPerNode = 1
	cfg.ChargeOverheads = false
	f := &Fabric{
		cfg:    cfg,
		env:    env,
		nics:   make([]*NIC, cfg.Ranks),
		link:   link,
		self:   link.Self(),
		netOps: make(map[uint64]*Op),
	}
	f.nics[f.self] = newNIC(f, f.self)
	if cfg.FaultPlan != nil {
		f.inj = fault.NewInjector(*cfg.FaultPlan)
	}
	link.Start(f.ingestFrame, f.netPeerDown)
	return f
}

// Self returns the local rank of a distributed fabric (0 otherwise).
func (f *Fabric) Self() int { return f.self }

// ---------------------------------------------------------------------------
// Op wire identity
// ---------------------------------------------------------------------------

// netRegisterOp assigns op its wire ID (once) and publishes it for ack
// resolution. Called from transmit on the posting goroutine, before the
// packet can reach the wire.
func (f *Fabric) netRegisterOp(op *Op) uint64 {
	f.netMu.Lock()
	if op.netID == 0 {
		f.netOpSeq++
		op.netID = f.netOpSeq
		f.netOps[op.netID] = op
	}
	id := op.netID
	f.netMu.Unlock()
	return id
}

// netLookupOp resolves an echoed wire ID back to the origin-side handle;
// nil when the op already completed (stale echo).
func (f *Fabric) netLookupOp(id uint64) *Op {
	if id == 0 {
		return nil
	}
	f.netMu.Lock()
	op := f.netOps[id]
	f.netMu.Unlock()
	return op
}

// netForgetOp drops a completed op's wire registration.
func (f *Fabric) netForgetOp(id uint64) {
	f.netMu.Lock()
	delete(f.netOps, id)
	f.netMu.Unlock()
}

// netSweepFailed drops the registrations of every op targeting a failed
// rank (their handles were completed with the failure error; a late echo
// must not resurrect them).
func (f *Fabric) netSweepFailed(failed int) {
	f.netMu.Lock()
	for id, op := range f.netOps {
		if op.target == failed {
			delete(f.netOps, id)
		}
	}
	f.netMu.Unlock()
}

// ---------------------------------------------------------------------------
// Outbound: packet → frame
// ---------------------------------------------------------------------------

// netFrame fills fr from a packet's fields.
func (f *Fabric) netFrame(pkt *packet, fr *wire.Frame) {
	*fr = wire.Frame{
		Kind:       pkt.kind,
		Origin:     pkt.origin,
		Target:     pkt.target,
		RegionID:   pkt.regionID,
		Offset:     pkt.offset,
		WireSize:   pkt.wireSize,
		OpID:       pkt.opID,
		Operand:    pkt.operand,
		Compare:    pkt.compare,
		Imm:        pkt.imm.Val,
		ImmValid:   pkt.imm.Valid,
		NotifyBack: pkt.notifyBack,
		AtomicOp:   uint8(pkt.aop),
		AccumOp:    uint8(pkt.accOp),
		Data:       pkt.data,
	}
	if pkt.regionID < 0 {
		fr.RegionID = 0 // acks and messages carry no region; keep encodable
	}
	if m := pkt.msg; m != nil {
		// A message is not an op and moves no region bytes: its header words
		// ride in the three fixed fields an op would use.
		fr.MsgClass = m.Class
		fr.ChargeCopy = m.ChargeCopy
		fr.Data = m.Data
		fr.OpID, fr.Operand, fr.Compare = uint64(m.Hdr[0]), uint64(m.Hdr[1]), uint64(m.Hdr[2])
	}
}

// netSend serializes a packet onto the link: encode, send, dispose. The
// link has finished with the packet's bytes when Send returns, so a pooled
// payload goes back to the pool here. Packets produced by delivery take
// SendReply, which never parks the rx goroutine.
func (f *Fabric) netSend(pkt *packet) {
	var fr wire.Frame
	f.netFrame(pkt, &fr)
	var err error
	if pkt.reply {
		err = f.link.SendReply(pkt.target, &fr)
	} else {
		err = f.link.Send(pkt.target, &fr)
	}
	if pkt.pooled {
		f.pool.put(pkt.data)
	}
	releasePacket(pkt)
	if err != nil {
		// The stream to this peer is broken. The mesh's reader will
		// normally notice first; declaring here too makes a failed write
		// surface even when the read side is quiescent (idempotent).
		f.declarePeerFailed(fr.Target, fmt.Sprintf("send failed: %v", err))
	}
}

// ---------------------------------------------------------------------------
// Inbound: frame → packet
// ---------------------------------------------------------------------------

// ingestFrame converts an arriving frame into a packet and delivers it on
// the link's rx goroutine before returning. fr.Data aliases the link's
// receive buffer, valid until rx returns, so puts, get responses,
// accumulates, atomics and notifications commit straight from it. Only a
// message's payload is copied into the pool, because its class queue keeps
// it past this call. Backpressure is the socket or ring itself: the reader
// stops only while it commits.
func (f *Fabric) ingestFrame(_ int, fr *wire.Frame) {
	kind := fr.Kind
	if kind > pktNotify || fr.Target != f.self {
		return // control frame the mesh already handled, or not ours: drop
	}
	pkt := newPacket()
	*pkt = packet{
		kind: kind, origin: fr.Origin, target: fr.Target,
		regionID: fr.RegionID, offset: fr.Offset, data: fr.Data,
		imm:      Imm{Valid: fr.ImmValid, Val: fr.Imm},
		wireSize: fr.WireSize, notifyBack: fr.NotifyBack,
		opID: fr.OpID, operand: fr.Operand, compare: fr.Compare,
		aop: AtomicOp(fr.AtomicOp), accOp: AccumOp(fr.AccumOp),
	}
	switch kind {
	case pktCtrl, pktData:
		// The three words are the message's header, not an op's (netFrame).
		pkt.opID, pkt.operand, pkt.compare = 0, 0, 0
		pkt.data = nil
		pkt.msg = &Msg{Origin: fr.Origin, Class: fr.MsgClass,
			Hdr:  MsgHdr{int(fr.OpID), int(fr.Operand), int(fr.Compare)},
			Data: f.pool.clone(fr.Data), ChargeCopy: fr.ChargeCopy}
	case pktAck, pktGetResp:
		pkt.op = f.netLookupOp(fr.OpID)
	}
	f.nics[f.self].deliverGuarded(pkt)
}

// netPeerDown maps the link's verdict on a peer (RST, EOF without goodbye,
// write timeout, stalled heartbeat) onto declarePeerFailed, so waiters
// unblock with the typed ErrPeerFailed.
func (f *Fabric) netPeerDown(rank int, err error) {
	f.declarePeerFailed(rank, fmt.Sprintf("link down: %v", err))
}

// declarePeerFailed converts a dead peer into typed ErrPeerFailed
// completions, once per failed rank, at every local NIC in rank order: the
// NIC's pending ops to the rank fail, its blocked waiters wake, and each
// survivor reports its own observation to the job-level hook. A down
// rank's own NIC (a single-process fabric hosts it) records the failure
// too, so its blocked waits unwind with the same error, but a dead rank
// observes nothing. On a distributed fabric the one local NIC is the
// observer, and registered wire ops to the dead rank are swept first.
func (f *Fabric) declarePeerFailed(failed int, reason string) {
	f.failMu.Lock()
	if f.closed || f.failed[failed] {
		f.failMu.Unlock()
		return
	}
	if f.failed == nil {
		f.failed = make(map[int]bool)
	}
	f.failed[failed] = true
	f.failMu.Unlock()
	if f.link != nil {
		f.netSweepFailed(failed)
	}
	for _, n := range f.nics {
		if n == nil {
			continue // distributed fabric: remote NICs live in other processes
		}
		err := &PeerFailedError{Observer: n.rank, Rank: failed, Reason: reason}
		n.notePeerFailure(failed, err)
		if hook := f.cfg.FailureHook; hook != nil && n.rank != failed && !f.down(n.rank) {
			hook(n.rank, failed, err)
		}
	}
}

// down reports whether the fault plan has taken rank down.
func (f *Fabric) down(rank int) bool {
	if f.inj == nil {
		return false
	}
	_, down := f.inj.Down(rank)
	return down
}

// NetStatsSource returns the link so callers holding only the fabric can
// surface transport statistics; nil on single-process fabrics.
func (f *Fabric) NetStatsSource() Link { return f.link }
