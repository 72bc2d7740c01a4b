// Package mp is the message-passing baseline: MPI-1-style two-sided
// communication with tag matching, implemented from scratch on the fabric.
//
// Protocols (paper Figure 2b):
//
//   - Eager: messages no larger than the eager threshold travel in a single
//     transaction into a receive-side bounce buffer; the receiver matches
//     them and pays a copy into the user buffer (the copy overhead the
//     paper identifies as eager's cost), plus unbounded intermediate
//     buffering (its scalability problem).
//   - Rendezvous: larger messages do a request-to-send / clear-to-send
//     handshake, then the payload moves straight into the posted receive
//     buffer (three transactions, no copy charge).
//
// Matching follows MPI semantics: a posted-receive queue (PRQ) and an
// unexpected queue (UQ), non-overtaking per (source, tag), with
// AnySource/AnyTag wildcards. Both queues are hash-bucketed on
// <source, tag> (internal/match) with wildcard-ordered side lists, so a
// match probe costs O(1) in queue depth — the same treatment foMPI gives
// its matching path. Progress is made inside blocking calls only (no
// asynchronous software agent), as in the paper's discussion of
// receiver-side matching costs.
package mp

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/match"
	"repro/internal/runtime"
	"repro/internal/simtime"
)

// Wildcards for Recv/Probe matching.
const (
	// AnySource matches messages from every rank.
	AnySource = match.AnySource
	// AnyTag matches every tag.
	AnyTag = match.AnyTag
)

// Status describes a received (or probed) message.
type Status struct {
	Source int
	Tag    int
	Count  int // payload bytes
}

// envelope identifies a message for matching.
type envelope struct {
	source int
	tag    int
}

func (e envelope) matches(source, tag int) bool {
	return (source == AnySource || source == e.source) && (tag == AnyTag || tag == e.tag)
}

// Message header words (fabric.MsgHdr) per class:
//
//	ClassMPEager, ClassMPRTS  {tag, sendID, count}  (sendID: rendezvous only)
//	ClassMPCTS                {sendID, recvID}      answers an RTS
//	ClassMPData               {tag, recvID}         payload for a posted receive

// uqEntry is an unexpected message: either a full eager payload or a
// rendezvous RTS envelope awaiting a CTS.
type uqEntry struct {
	env    envelope
	eager  bool
	data   []byte // eager payload
	sendID int    // rendezvous
	count  int
}

// RecvReq is a receive request (Irecv). Only the owning rank touches it.
type RecvReq struct {
	buf     []byte
	source  int
	tag     int
	id      int
	done    bool
	matched bool // bound to a sender (rendezvous CTS sent, awaiting data)
	status  Status
}

// Done reports request completion (progress is only made inside Wait/Test).
func (r *RecvReq) Done() bool { return r.done }

// Status returns the completion status; valid once Done.
func (r *RecvReq) Status() Status { return r.status }

// SendReq is a send request (Isend).
type SendReq struct {
	done   bool
	id     int
	target int
	tag    int
	data   []byte // retained until CTS for rendezvous
}

// Done reports request completion.
func (s *SendReq) Done() bool { return s.done }

// Comm is a rank's message-passing endpoint. Obtain it with New; it is not
// safe for use by other ranks.
type Comm struct {
	p   *runtime.Proc
	nic *fabric.NIC

	eagerThreshold int

	prq match.Posted[*RecvReq] // posted receives, hashed, post-ordered
	uq  match.Store[*uqEntry]  // unexpected messages, hashed, arrival-ordered

	pendingSends map[int]*SendReq
	pendingRecvs map[int]*RecvReq // rendezvous receives awaiting data
	nextID       int
}

type commKey struct{}

// New returns rank p's message-passing endpoint, creating it on first use.
func New(p *runtime.Proc) *Comm {
	return p.Attach(commKey{}, func() any {
		return &Comm{
			p:              p,
			nic:            p.NIC(),
			eagerThreshold: p.World().Options().EagerThreshold,
			pendingSends:   map[int]*SendReq{},
			pendingRecvs:   map[int]*RecvReq{},
		}
	}).(*Comm)
}

// EagerThreshold returns the eager/rendezvous switch point in bytes.
func (c *Comm) EagerThreshold() int { return c.eagerThreshold }

// Proc returns the owning rank handle.
func (c *Comm) Proc() *runtime.Proc { return c.p }

// mpClasses are the message classes the progress loop consumes, in one
// multi-class wait so handling preserves cross-class arrival order.
var mpClasses = []int{runtime.ClassMPEager, runtime.ClassMPRTS, runtime.ClassMPCTS, runtime.ClassMPData}

// handle processes one incoming message-passing packet.
func (c *Comm) handle(m *fabric.Msg) {
	c.charge(c.p.Model().ORecv + c.p.Model().MPRecvExtra)
	switch m.Class {
	case runtime.ClassMPEager:
		env := envelope{source: m.Origin, tag: m.Hdr[0]}
		if req := c.matchPRQ(env); req != nil {
			c.completeEager(req, env, m.Data)
			return
		}
		c.uq.Add(env.source, env.tag, &uqEntry{env: env, eager: true, data: m.Data, count: len(m.Data)})

	case runtime.ClassMPRTS:
		tag, sendID, count := m.Hdr[0], m.Hdr[1], m.Hdr[2]
		env := envelope{source: m.Origin, tag: tag}
		if req := c.matchPRQ(env); req != nil {
			c.sendCTS(req, env, sendID)
			return
		}
		c.uq.Add(env.source, env.tag, &uqEntry{env: env, sendID: sendID, count: count})

	case runtime.ClassMPCTS:
		sendID, recvID := m.Hdr[0], m.Hdr[1]
		req := c.pendingSends[sendID]
		if req == nil {
			panic(fmt.Sprintf("mp: rank %d: CTS for unknown send %d", c.p.Rank(), sendID))
		}
		delete(c.pendingSends, sendID)
		// Ship the payload straight into the posted receive buffer
		// (RDMA write in the real implementation: no receive-side copy).
		c.nic.PostMsg(c.p.Proc, req.target, runtime.ClassMPData,
			fabric.MsgHdr{req.tag, recvID}, req.data, false)
		c.nic.ReleaseBuf(req.data) // pooled staging copy, made at Isend
		req.data = nil
		req.done = true

	case runtime.ClassMPData:
		tag, recvID := m.Hdr[0], m.Hdr[1]
		req := c.pendingRecvs[recvID]
		if req == nil {
			panic(fmt.Sprintf("mp: rank %d: data for unknown recv %d", c.p.Rank(), recvID))
		}
		delete(c.pendingRecvs, recvID)
		count := len(m.Data)
		copy(req.buf, m.Data)
		c.nic.RecycleMsgData(m)
		req.status = Status{Source: m.Origin, Tag: tag, Count: count}
		req.done = true
	}
}

// matchPRQ removes and returns the oldest posted receive matching env.
// The hashed table answers in O(1); one TMatchScan covers the probe (the
// analytic model charges exactly one scan per transfer, and the seed's
// linear scan also cost one unit on the depth-1 fast path).
func (c *Comm) matchPRQ(env envelope) *RecvReq {
	if c.prq.Depth() == 0 {
		return nil
	}
	c.charge(c.p.Model().TMatchScan)
	e := c.prq.Match(env.source, env.tag)
	if e == nil {
		return nil
	}
	c.prq.Remove(e)
	return e.Item
}

// completeEager copies an eager payload into the matched receive and
// recycles the bounce buffer (it always came from the fabric pool, whether
// it arrives straight off the wire or via the unexpected queue).
func (c *Comm) completeEager(req *RecvReq, env envelope, data []byte) {
	if len(data) > len(req.buf) {
		panic(fmt.Sprintf("mp: rank %d: message truncation: %d bytes into %d-byte buffer",
			c.p.Rank(), len(data), len(req.buf)))
	}
	count := len(data)
	copy(req.buf, data)
	c.nic.ReleaseBuf(data)
	c.charge(c.p.Model().CopyTime(count)) // the eager bounce-buffer copy
	req.status = Status{Source: env.source, Tag: env.tag, Count: count}
	req.done = true
}

// sendCTS answers a matched RTS and records the receive as awaiting data.
func (c *Comm) sendCTS(req *RecvReq, env envelope, sendID int) {
	c.nextID++
	id := c.nextID
	c.pendingRecvs[id] = req
	req.matched = true
	c.nic.PostMsg(c.p.Proc, env.source, runtime.ClassMPCTS, fabric.MsgHdr{sendID, id}, nil, false)
}

// charge applies a modeled software cost (no-op under the Real engine).
func (c *Comm) charge(d simtime.Duration) { c.p.Sleep(d) }

// progress consumes one incoming packet, blocking if block is set. Returns
// whether a packet was handled.
func (c *Comm) progress(block bool) bool {
	if m, ok := c.nic.PollMsgClasses(mpClasses...); ok {
		c.handle(m)
		return true
	}
	if !block {
		return false
	}
	m := c.nic.WaitMsgClasses(c.p.Proc, mpClasses...)
	c.handle(m)
	return true
}

// Isend starts a send of data to target with tag and returns its request.
// Eager sends complete immediately; rendezvous sends complete when the CTS
// arrives (driven inside Wait/blocking calls).
func (c *Comm) Isend(target, tag int, data []byte) *SendReq {
	c.charge(c.p.Model().MPSendExtra)
	c.nextID++
	req := &SendReq{id: c.nextID, target: target, tag: tag}
	if len(data) <= c.eagerThreshold {
		c.nic.PostMsg(c.p.Proc, target, runtime.ClassMPEager, fabric.MsgHdr{tag, 0, len(data)}, data, true)
		req.done = true
		return req
	}
	// Stage the payload in a pooled buffer until the CTS arrives (MPI
	// buffered-send semantics: the caller's buffer is free immediately).
	cp := c.nic.AcquireBuf(len(data))
	copy(cp, data)
	req.data = cp
	c.pendingSends[req.id] = req
	c.nic.PostMsg(c.p.Proc, target, runtime.ClassMPRTS, fabric.MsgHdr{tag, req.id, len(data)}, nil, false)
	return req
}

// Send is the blocking standard send.
func (c *Comm) Send(target, tag int, data []byte) {
	req := c.Isend(target, tag, data)
	c.WaitSend(req)
}

// WaitSend blocks until the send request completes.
func (c *Comm) WaitSend(req *SendReq) {
	for !req.done {
		c.progress(true)
	}
}

// TestSend makes progress without blocking and reports completion.
func (c *Comm) TestSend(req *SendReq) bool {
	for !req.done && c.progress(false) {
	}
	return req.done
}

// Irecv posts a receive into buf from (source, tag) — wildcards allowed —
// and returns its request.
func (c *Comm) Irecv(buf []byte, source, tag int) *RecvReq {
	c.nextID++
	req := &RecvReq{buf: buf, source: source, tag: tag, id: c.nextID}
	// Unexpected queue first (arrival order), then post. One TMatchScan
	// covers the bucketed probe, whatever the store depth.
	if c.uq.Depth() > 0 {
		c.charge(c.p.Model().TMatchScan)
		if u, _, _, ok := c.uq.Pop(source, tag); ok {
			if u.eager {
				c.completeEager(req, u.env, u.data)
			} else {
				c.sendCTS(req, u.env, u.sendID)
			}
			return req
		}
	}
	c.prq.Add(source, tag, req)
	return req
}

// Recv blocks until a matching message is received into buf.
func (c *Comm) Recv(buf []byte, source, tag int) Status {
	req := c.Irecv(buf, source, tag)
	return c.WaitRecv(req)
}

// WaitRecv blocks until the receive completes and returns its status.
// A receive from a specific source fails fast (panics with an error
// unwrapping to fabric.ErrPeerFailed) once that source is declared dead —
// more precise than the generic blocked-wait unblocking, which only fires
// when the message queue runs dry.
func (c *Comm) WaitRecv(req *RecvReq) Status {
	for !req.done {
		if req.source != AnySource && !req.matched {
			if err := c.nic.PeerError(req.source); err != nil {
				panic(err)
			}
		}
		c.progress(true)
	}
	return req.status
}

// TestRecv makes progress without blocking and reports completion.
func (c *Comm) TestRecv(req *RecvReq) (Status, bool) {
	for !req.done && c.progress(false) {
	}
	return req.status, req.done
}

// Probe blocks until a message matching (source, tag) is available without
// receiving it, and returns its envelope — the MPI_Probe the paper's
// message-passing Cholesky uses to decode tile indices from tags.
func (c *Comm) Probe(source, tag int) Status {
	for {
		if st, ok := c.Iprobe(source, tag); ok {
			return st
		}
		c.progress(true)
	}
}

// Iprobe reports whether a matching message is available, without
// receiving it.
func (c *Comm) Iprobe(source, tag int) (Status, bool) {
	for c.progress(false) {
	}
	if nd := c.uq.Peek(source, tag); nd != nil {
		u := nd.Item
		return Status{Source: u.env.source, Tag: u.env.tag, Count: u.count}, true
	}
	return Status{}, false
}

// UnexpectedDepth returns the current unexpected-queue length (used by the
// scalability discussion benches).
func (c *Comm) UnexpectedDepth() int { return c.uq.Depth() }

// MatchStats reports the matcher's depth accounting for the benchmarks.
type MatchStats struct {
	PostedDepth         int // receives currently armed in the PRQ
	PostedHighWater     int // maximum PRQ depth observed
	UnexpectedDepth     int // messages currently buffered in the UQ
	UnexpectedHighWater int // maximum UQ depth observed
}

// MatchStats returns a snapshot of the PRQ/UQ depth counters.
func (c *Comm) MatchStats() MatchStats {
	return MatchStats{
		PostedDepth:         c.prq.Depth(),
		PostedHighWater:     c.prq.HighWater(),
		UnexpectedDepth:     c.uq.Depth(),
		UnexpectedHighWater: c.uq.HighWater(),
	}
}

// Sendrecv posts the receive, sends, and waits for both — the deadlock-free
// neighbor-exchange primitive (MPI_Sendrecv).
func (c *Comm) Sendrecv(sendTo, sendTag int, sendData []byte, recvBuf []byte, recvFrom, recvTag int) Status {
	rr := c.Irecv(recvBuf, recvFrom, recvTag)
	sr := c.Isend(sendTo, sendTag, sendData)
	c.WaitSend(sr)
	return c.WaitRecv(rr)
}
