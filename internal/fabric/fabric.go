// Package fabric implements the simulated RDMA interconnect the rest of the
// stack runs on: the Go stand-in for Cray Aries accessed through uGNI
// (inter-node FMA/BTE) and XPMEM (intra-node shared memory).
//
// Each rank owns a NIC. A NIC exposes:
//
//   - registered memory regions remote ranks can Put to / Get from,
//   - one-sided remote atomics executed at the target without target CPU,
//   - a 4-byte immediate value attachable to any put or get, delivered into
//     the target's destination completion queue (the uGNI mechanism the
//     paper builds Notified Access on),
//   - small control/data messages (the moral equivalent of FMA mailbox
//     writes) used by the message-passing and RMA-synchronization layers,
//   - remote-completion ACKs so Flush can wait for remote commitment.
//
// The fabric runs under either execution engine (see internal/exec). Under
// Sim, every packet is a discrete event whose arrival time follows the LogGP
// model (internal/loggp) with per-(origin,target) FIFO ordering — latencies
// in figures emerge from these events. Under the wall-clock engines there
// is one delivery rule and no artificial delay: a packet commits on the
// goroutine that sent it (in-process, as an XPMEM origin stores into the
// target's window itself) or on the goroutine that read its frame off a
// link. The fabric starts no goroutine of its own.
package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/beat"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/loggp"
	"repro/internal/simtime"
)

// Config parameterizes a fabric.
type Config struct {
	// Ranks is the number of endpoints.
	Ranks int
	// RanksPerNode controls topology: ranks r and s share a node (and use
	// the SHM transport) iff r/RanksPerNode == s/RanksPerNode. A value <= 1
	// places every rank on its own node; a value >= Ranks makes the whole
	// job intra-node.
	RanksPerNode int
	// Model supplies LogGP parameters and software-overhead constants.
	Model loggp.Model
	// InlineThreshold is the largest intra-node put payload (bytes) that is
	// carried inside the 64-byte notification ring entry ("inline
	// transfer"); larger intra-node puts pay the memcpy cost. 0 disables
	// inlining.
	InlineThreshold int
	// ChargeOverheads controls whether posting calls charge the modeled
	// o_s send overhead to the calling proc (Sim engine only).
	ChargeOverheads bool
	// GetNotifyMode selects how the target of a notified GET learns its
	// buffer was read, reflecting the NIC capabilities the paper surveys
	// (§IV-A, §VIII). Default: GetNotifyImmediate.
	GetNotifyMode GetNotifyMode
	// Trace, when non-nil, receives one event per packet delivery (for
	// protocol audits and tests). Called from delivery context: must not
	// block. Sim engine only delivers deterministically.
	Trace func(ev TraceEvent)
	// FaultPlan, when non-nil, crashes or hangs the ranks it names (see
	// internal/fault): their packets are absorbed at transmit, and the
	// survivors learn of the failure by the liveness rule (declareAfter).
	// Without a plan the data path never consults an injector.
	FaultPlan *fault.Plan
	// FailureHook, when non-nil, is called once per (observer, failed)
	// pair: each surviving local rank that learns a rank is dead reports
	// it once. Called from delivery/timer context: must not block on
	// fabric operations.
	FailureHook func(observer, failed int, err error)
}

// GetNotifyMode is the notified-GET notification protocol.
type GetNotifyMode int

const (
	// GetNotifyImmediate: the NIC posts the CQE at the data holder as soon
	// as the data has been read there — uGNI / Portals 4 semantics on a
	// reliable network (paper §IV-B). One packet total.
	GetNotifyImmediate GetNotifyMode = iota
	// GetNotifyOriginOrdered: the NIC has no "read with immediate"
	// (InfiniBand, §IV-A); the origin injects a zero-byte notification
	// write right after the read request on the same connection, and
	// in-order execution at the responder guarantees it lands after the
	// read. One extra packet, no extra latency round trip.
	GetNotifyOriginOrdered
	// GetNotifyDeferred: the network is unreliable (§VIII); the
	// notification may only fire once the data safely arrived at the
	// origin, which then notifies the data holder — an extra round trip.
	GetNotifyDeferred
)

func (m GetNotifyMode) String() string {
	switch m {
	case GetNotifyImmediate:
		return "immediate"
	case GetNotifyOriginOrdered:
		return "origin-ordered"
	case GetNotifyDeferred:
		return "deferred"
	}
	return fmt.Sprintf("getnotify(%d)", int(m))
}

// TraceEvent describes one delivered packet.
type TraceEvent struct {
	Kind           string // "put", "get-req", "get-resp", "atomic", "accum", "ack", "ctrl", "data", "notify"
	Origin, Target int
	Bytes          int
	Imm            Imm
}

// DefaultConfig returns a Config modeling the paper's Piz Daint setup with
// every rank on its own node.
func DefaultConfig(ranks int) Config {
	return Config{
		Ranks:           ranks,
		RanksPerNode:    1,
		Model:           loggp.DefaultCrayXC30(),
		InlineThreshold: 32,
		ChargeOverheads: true,
	}
}

// Counters aggregates fabric traffic statistics; used by the Fig-2 protocol
// audit and by tests that assert transaction counts.
type Counters struct {
	DataPackets   atomic.Int64 // puts, get responses, rendezvous data
	CtrlPackets   atomic.Int64 // control messages (RTS/CTS, PSCW, barrier…)
	AckPackets    atomic.Int64 // remote-completion acknowledgements
	AtomicPackets atomic.Int64 // atomic requests
	GetRequests   atomic.Int64 // get request packets
	NotifyPackets atomic.Int64 // deferred get notifications (unreliable mode)
	BytesMoved    atomic.Int64 // payload bytes on the wire
}

// Snapshot returns a plain-struct copy of the counters.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		DataPackets:   c.DataPackets.Load(),
		CtrlPackets:   c.CtrlPackets.Load(),
		AckPackets:    c.AckPackets.Load(),
		AtomicPackets: c.AtomicPackets.Load(),
		GetRequests:   c.GetRequests.Load(),
		NotifyPackets: c.NotifyPackets.Load(),
		BytesMoved:    c.BytesMoved.Load(),
	}
}

// CounterSnapshot is an immutable view of Counters.
type CounterSnapshot struct {
	DataPackets   int64
	CtrlPackets   int64
	AckPackets    int64
	AtomicPackets int64
	GetRequests   int64
	NotifyPackets int64
	BytesMoved    int64
}

// Sub returns the per-field difference s - t.
func (s CounterSnapshot) Sub(t CounterSnapshot) CounterSnapshot {
	return CounterSnapshot{
		DataPackets:   s.DataPackets - t.DataPackets,
		CtrlPackets:   s.CtrlPackets - t.CtrlPackets,
		AckPackets:    s.AckPackets - t.AckPackets,
		AtomicPackets: s.AtomicPackets - t.AtomicPackets,
		GetRequests:   s.GetRequests - t.GetRequests,
		NotifyPackets: s.NotifyPackets - t.NotifyPackets,
		BytesMoved:    s.BytesMoved - t.BytesMoved,
	}
}

// Total returns the total number of network transactions (packets of any
// kind).
func (s CounterSnapshot) Total() int64 {
	return s.DataPackets + s.CtrlPackets + s.AckPackets + s.AtomicPackets + s.GetRequests + s.NotifyPackets
}

// Fabric is the interconnect connecting Config.Ranks NICs.
type Fabric struct {
	cfg  Config
	env  exec.Env
	nics []*NIC

	Stats Counters

	// pool is the fabric-wide registered transfer-buffer allocator; every
	// pooled payload (put bounce buffers, get replies, accumulate operand
	// encodings, message payload staging) draws from it.
	pool bufPool

	// lastArrive[origin*Ranks+target] tracks the previous arrival time on
	// each ordered pair for FIFO enforcement (Sim engine only; guarded by
	// the single-threaded kernel).
	lastArrive []simtime.Time

	// inj is the rank-failure plane; nil without a fault plan (transmit
	// checks this once).
	inj *fault.Injector

	// Distributed-mode state (nil/zero on single-process fabrics): link is
	// the cross-process transport, self the only rank with a local NIC.
	// netOps maps wire op IDs back to origin-side op handles so acks and
	// get responses can cross a process boundary.
	link     Link
	self     int
	netMu    sync.Mutex
	netOps   map[uint64]*Op
	netOpSeq uint64

	// Peer-failure bookkeeping: each dead rank is declared exactly once
	// (declarePeerFailed). closed makes a declaration that fires after
	// Close a no-op.
	failMu sync.Mutex
	failed map[int]bool
	closed bool
}

// New creates a fabric with the given configuration running under env.
func New(env exec.Env, cfg Config) *Fabric {
	if cfg.Ranks <= 0 {
		panic(fmt.Sprintf("fabric: invalid rank count %d", cfg.Ranks))
	}
	if cfg.RanksPerNode <= 0 {
		cfg.RanksPerNode = 1
	}
	if cfg.InlineThreshold > RingInlineCapacity {
		// An entry is one cache line; larger payloads cannot ride inline.
		cfg.InlineThreshold = RingInlineCapacity
	}
	f := &Fabric{
		cfg:        cfg,
		env:        env,
		nics:       make([]*NIC, cfg.Ranks),
		lastArrive: make([]simtime.Time, cfg.Ranks*cfg.Ranks),
	}
	for r := 0; r < cfg.Ranks; r++ {
		f.nics[r] = newNIC(f, r)
	}
	if cfg.FaultPlan != nil {
		f.inj = fault.NewInjector(*cfg.FaultPlan)
		f.inj.SetDownHook(f.declareAfter)
	}
	return f
}

// declareAfter is the liveness rule of the single-process engines, the
// one the TCP and shm meshes' heartbeat detectors follow: a rank that goes
// down is declared failed at every survivor once it has been silent for
// beat.Policy's timeout. The timeout runs on the engine's clock — virtual
// time under Sim, so detection is as deterministic as the rest of the run.
func (f *Fabric) declareAfter(rank int, mode fault.RankMode) {
	timeout := beat.Policy{}.WithDefaults().Timeout
	f.env.Schedule(simtime.Duration(timeout), exec.PrioWake, func() {
		f.declarePeerFailed(rank, fmt.Sprintf("%v: silent for %v", mode, timeout))
	})
}

// NIC returns rank r's network interface.
func (f *Fabric) NIC(r int) *NIC {
	if r < 0 || r >= len(f.nics) {
		panic(fmt.Sprintf("fabric: rank %d out of range [0,%d)", r, len(f.nics)))
	}
	return f.nics[r]
}

// Ranks returns the number of endpoints.
func (f *Fabric) Ranks() int { return f.cfg.Ranks }

// Model returns the LogGP model in use.
func (f *Fabric) Model() loggp.Model { return f.cfg.Model }

// SameNode reports whether two ranks share a node (SHM transport).
func (f *Fabric) SameNode(a, b int) bool {
	return a/f.cfg.RanksPerNode == b/f.cfg.RanksPerNode
}

// Transport returns the transport class used between two ranks for a
// transfer of the given size.
func (f *Fabric) Transport(origin, target, size int) loggp.Transport {
	if f.SameNode(origin, target) {
		return loggp.SHM
	}
	if size >= f.cfg.Model.FMABTECrossover {
		return loggp.BTE
	}
	return loggp.FMA
}

// wireParams returns LogGP parameters for a transfer.
func (f *Fabric) wireParams(origin, target, size int) loggp.Params {
	return f.cfg.Model.Select(f.Transport(origin, target, size))
}

// wireTime computes the one-way wire duration for a payload, honoring the
// intra-node inline-transfer optimization: payloads that fit in the
// notification ring entry cost a single cache-line transfer (L only).
func (f *Fabric) wireTime(origin, target, size int, inlineEligible bool) simtime.Duration {
	p := f.wireParams(origin, target, size)
	if inlineEligible && f.SameNode(origin, target) && size <= f.cfg.InlineThreshold {
		return p.L
	}
	return p.Time(size)
}

// zeroCopyEligible reports whether a transfer may skip the bounce buffer
// and copy source → destination memory directly at delivery time: Real
// engine only (under Sim the staging copy keeps delivered bytes — and so
// modeled timings — independent of later source mutations), intra-node,
// and at least BTE-sized (small transfers gain nothing, and inline-ring
// payloads must stay staged copies).
func (f *Fabric) zeroCopyEligible(origin, target, size int) bool {
	return f.env.Mode().Wallclock() &&
		size >= f.cfg.Model.FMABTECrossover &&
		size > f.cfg.InlineThreshold &&
		f.SameNode(origin, target)
}

// sendBorrowEligible reports that a send to target crosses a process
// boundary, where it departs synchronously on the posting goroutine, so the
// packet may reference the caller's buffer directly instead of a pooled
// bounce copy: the link has finished serializing it (copied it into shared
// memory or into the stream's encode buffer) by the time transmit returns.
func (f *Fabric) sendBorrowEligible(target int) bool {
	return f.link != nil && target != f.self
}

// transmit moves pkt from origin to target. Each logical packet is
// counted once here. Under a fault plan the injector decides, once per
// packet, whether it leaves its origin and reaches its target; a packet
// from a down rank or to a crashed one is discarded here.
func (f *Fabric) transmit(pkt *packet) {
	if f.link != nil && pkt.op != nil && pkt.target != f.self && pkt.opID == 0 {
		// Cross-process op: give it a wire identity before the packet can
		// leave the process, so the remote ack can find its way home.
		pkt.opID = f.netRegisterOp(pkt.op)
	}
	f.count(pkt)
	if f.inj != nil && !f.inj.Admit(pkt.origin, pkt.target) {
		f.discardPacket(pkt)
		return
	}
	f.dispatch(pkt)
}

// dispatch puts a packet on the wire. Under Sim it schedules a delivery
// event at the FIFO-adjusted LogGP arrival time; under the wall-clock
// engines it hands the packet over at once: to the link when the target
// lives in another process, otherwise to the target NIC, which commits it
// on this goroutine — the one delivery rule of the wall-clock engines (a
// link's reader follows it too, in ingestFrame).
func (f *Fabric) dispatch(pkt *packet) {
	if f.env.Mode().Wallclock() {
		if f.link != nil && pkt.target != f.self {
			f.netSend(pkt)
			return
		}
		f.nics[pkt.target].deliverGuarded(pkt)
		return
	}
	dst := f.nics[pkt.target]
	wire := f.wireTime(pkt.origin, pkt.target, pkt.wireSize, pkt.inlineEligible)
	now := f.env.Now()
	arrive := now.Add(wire + simtime.Duration(pkt.extraDelay))
	idx := pkt.origin*f.cfg.Ranks + pkt.target
	gap := f.wireParams(pkt.origin, pkt.target, pkt.wireSize).O
	if earliest := f.lastArrive[idx].Add(gap); arrive < earliest {
		arrive = earliest
	}
	f.lastArrive[idx] = arrive
	// Lane discipline for exploring schedulers: per-pair delivery order is
	// a platform guarantee the upper layers rely on, so tag the event with
	// the pair's lane (idx+1; lane 0 means unconstrained).
	exec.ScheduleLane(f.env, arrive.Sub(now), exec.PrioDelivery, uint64(idx+1), func() { dst.deliver(pkt) })
}

// discardPacket disposes of a packet that will never be delivered,
// returning its staged payload and message data to the pool.
func (f *Fabric) discardPacket(pkt *packet) {
	if pkt.pooled {
		f.pool.put(pkt.data)
	}
	if pkt.msg != nil && pkt.msg.Data != nil {
		f.pool.put(pkt.msg.Data)
		pkt.msg.Data = nil
	}
	releasePacket(pkt)
}

// FaultStats is the link-repair counter set the benchmark module still
// reads. The fabric is lossless and repairs nothing, so every field is
// always zero; the type goes once the benchmark stops reading it (ROADMAP
// item 7).
type FaultStats struct {
	LinkAcks, LinkNacks, Retransmits, DupsDropped int64
}

// FaultStats returns the always-zero link-repair counters.
func (f *Fabric) FaultStats() FaultStats { return FaultStats{} }

// Injector exposes the fault injector (nil without a fault plan) so tests
// and harnesses can crash or hang ranks mid-run.
func (f *Fabric) Injector() *fault.Injector { return f.inj }

func (f *Fabric) count(pkt *packet) {
	switch pkt.kind {
	case pktPut, pktGetResp, pktData:
		f.Stats.DataPackets.Add(1)
	case pktCtrl:
		f.Stats.CtrlPackets.Add(1)
	case pktAck:
		f.Stats.AckPackets.Add(1)
	case pktAtomic:
		f.Stats.AtomicPackets.Add(1)
	case pktGetReq:
		f.Stats.GetRequests.Add(1)
	case pktNotify:
		f.Stats.NotifyPackets.Add(1)
	}
	f.Stats.BytesMoved.Add(int64(pkt.wireSize))
}

// chargeSend charges the modeled o_s overhead to p (Sim only, if enabled).
func (f *Fabric) chargeSend(p *exec.Proc) {
	if p != nil && f.cfg.ChargeOverheads {
		p.Sleep(f.cfg.Model.OSend)
	}
}
