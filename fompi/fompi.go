// Package fompi is the public API of the Notified Access reproduction: a
// Go rendering of the foMPI-NA interface from Belli & Hoefler, "Notified
// Access: Extending Remote Memory Access Programming Models for
// Producer-Consumer Synchronization" (IPDPS 2015).
//
// A program is an SPMD body executed by N ranks over a simulated RDMA
// fabric (see internal/fabric):
//
//	fompi.Run(fompi.Options{Ranks: 2}, func(p *fompi.Proc) {
//		win := p.WinAllocate(1024)
//		defer win.Free()
//		if p.Rank() == 0 {
//			win.PutNotify(1, 0, data, 42)
//			win.Flush(1)
//		} else {
//			req := win.NotifyInit(0, 42, 1)
//			req.Start()
//			st := req.Wait()
//			// win.Buffer() now holds data; st.Tag == 42
//			req.Free()
//		}
//	})
//
// The surface mirrors the paper's strawman MPI interface: windows with the
// full MPI-3 One Sided operation set (Put/Get/Accumulate/FetchAndOp/
// CompareAndSwap, Flush, Fence, Post/Start/Complete/Wait, Lock/Unlock),
// two-sided message passing (Send/Recv/Probe with tag matching), and the
// Notified Access extension (PutNotify/GetNotify/AccumulateNotify +
// NotifyInit persistent requests with wildcard and counting matching).
//
// Two engines run the same program: the deterministic virtual-time
// simulator parameterized with the paper's Cray XC30 LogGP constants (the
// default) and a real-concurrency wall-clock engine (Options.Real).
package fompi

import (
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/ft"
	"repro/internal/loggp"
	"repro/internal/mp"
	"repro/internal/netfab"
	"repro/internal/rma"
	"repro/internal/runtime"
	"repro/internal/shmfab"
	"repro/internal/simtime"
)

// Wildcards for matching (MPI_ANY_SOURCE / MPI_ANY_TAG).
const (
	AnySource = core.AnySource
	AnyTag    = core.AnyTag
)

// MaxTag is the largest tag encodable in a notification (16 bits, the
// uGNI immediate-value constraint the paper describes).
const MaxTag = core.MaxTag

// MaxSource is the largest source rank encodable in a notification (the
// other 16-bit half of the immediate).
const MaxSource = core.MaxSource

// Time is virtual (Sim) or wall (Real) nanoseconds since the job started.
type Time = simtime.Time

// Duration is a span of nanoseconds.
type Duration = simtime.Duration

// Options configures a job.
type Options struct {
	// Ranks is the number of SPMD processes (required).
	Ranks int
	// Real selects the wall-clock concurrency engine instead of the
	// deterministic virtual-time simulator. Shorthand for
	// Transport = TransportReal.
	Real bool
	// Transport selects the engine explicitly: TransportSim (default),
	// TransportReal, or TransportTCP (this process hosts one rank of a
	// multi-process job; see Dist). When left at TransportSim, Run also
	// honors the NA_TRANSPORT environment set by cmd/nalaunch, so an
	// unmodified program becomes distributed when run under the launcher.
	Transport Transport
	// Dist locates this process inside a TransportTCP job. Filled from the
	// NA_* environment when nil and the launcher set one.
	Dist *DistConfig
	// Shm locates this process inside a TransportShm job (same-host ranks
	// over mmap'd segment pairs). Filled from the NA_* environment when
	// nil and the launcher set one.
	Shm *ShmConfig
	// RanksPerNode places consecutive ranks on shared-memory nodes
	// (default 1: every rank on its own node).
	RanksPerNode int
	// EagerThreshold is the message-passing eager/rendezvous switch in
	// bytes (default 8192).
	EagerThreshold int
	// UnreliableNetwork switches notified gets to the deferred-notification
	// protocol the paper describes for networks that may retransmit
	// (§VIII): the data holder is notified only after the data reached the
	// origin, costing an extra round trip on the notification path.
	UnreliableNetwork bool
	// FaultPlan, when non-nil, crashes or hangs the ranks it names. The
	// survivors learn of a failure after the liveness timeout, and it
	// surfaces as run errors unwrapping to ErrPeerFailed.
	FaultPlan *fault.Plan
}

// ErrPeerFailed is the sentinel a run error unwraps to (errors.Is) when a
// rank was declared dead by the peer-failure detector.
var ErrPeerFailed = fabric.ErrPeerFailed

// Run executes body on every rank and returns when all complete. Any rank
// panic aborts the job and is returned as an error. Under TransportTCP the
// local process runs only rank Dist.Rank; Run returns when that rank (and
// the job-finalizing barrier) completes.
func Run(opts Options, body func(p *Proc)) error {
	opts, err := opts.detectEnv()
	if err != nil {
		return err
	}
	if opts.Transport == TransportTCP {
		return runDist(opts, body)
	}
	if opts.Transport == TransportShm {
		return runShm(opts, body)
	}
	ro := rtOptions(opts)
	ro.Mode = exec.Sim
	if opts.Real || opts.Transport == TransportReal {
		ro.Mode = exec.Real
	}
	return runtime.Run(ro, func(p *runtime.Proc) {
		body(&Proc{p: p})
	})
}

// rtOptions maps the public options onto the runtime's (Mode is chosen by
// the caller).
func rtOptions(opts Options) runtime.Options {
	return runtime.Options{
		Ranks:             opts.Ranks,
		RanksPerNode:      opts.RanksPerNode,
		EagerThreshold:    opts.EagerThreshold,
		UnreliableNetwork: opts.UnreliableNetwork,
		FaultPlan:         opts.FaultPlan,
	}
}

// Proc is one rank's handle.
type Proc struct {
	p *runtime.Proc
}

// Rank returns this process's rank in [0, N).
func (p *Proc) Rank() int { return p.p.Rank() }

// N returns the number of ranks.
func (p *Proc) N() int { return p.p.N() }

// Now returns the current virtual (Sim) or wall (Real) time.
func (p *Proc) Now() Time { return p.p.Now() }

// Compute charges d of modeled computation (Sim engine; no-op under Real).
func (p *Proc) Compute(d Duration) { p.p.Compute(d) }

// Work runs fn and charges cost of modeled time under Sim.
func (p *Proc) Work(cost Duration, fn func()) { p.p.Work(cost, fn) }

// Barrier blocks until every rank has entered it.
func (p *Proc) Barrier() { p.p.Barrier() }

// Yield lets other ranks and in-flight messages make progress; call it
// inside Test/Iprobe polling loops (under the simulator a rank that spins
// without yielding would stall virtual time).
func (p *Proc) Yield() { p.p.Yield() }

// Model returns the LogGP model parameterizing the fabric.
func (p *Proc) Model() loggp.Model { return p.p.Model() }

// OnPeerFailure registers fn to run when the fabric declares a peer rank
// dead (heartbeat stall, broken connection, a FaultPlan crash or hang).
// Without a FaultPlan only the distributed engines ever fire it. fn is
// called from a fabric goroutine or timer — keep it short and do not issue
// communication from inside it. On the single-process engines it runs once
// per surviving rank that observes the failure, so make it idempotent.
func (p *Proc) OnPeerFailure(fn func(failed int, err error)) { p.p.OnPeerFailure(fn) }

// WinAllocate collectively creates an RMA window of size bytes on every
// rank (MPI_Win_allocate). All ranks must call it in the same order.
func (p *Proc) WinAllocate(size int) *Win {
	return &Win{p: p, w: rma.Allocate(p.p, size)}
}

// Send is a blocking tagged send (MPI_Send).
func (p *Proc) Send(target, tag int, data []byte) { mp.New(p.p).Send(target, tag, data) }

// Recv is a blocking tagged receive (MPI_Recv); wildcards allowed.
func (p *Proc) Recv(buf []byte, source, tag int) Status {
	st := mp.New(p.p).Recv(buf, source, tag)
	return Status{Source: st.Source, Tag: st.Tag, Count: st.Count}
}

// Probe blocks until a matching message is available without receiving it
// (MPI_Probe).
func (p *Proc) Probe(source, tag int) Status {
	st := mp.New(p.p).Probe(source, tag)
	return Status{Source: st.Source, Tag: st.Tag, Count: st.Count}
}

// Status describes a received or probed message / notification.
type Status struct {
	Source int
	Tag    int
	Count  int
}

// AccumOp selects the accumulate reduction.
type AccumOp = fabric.AccumOp

// FaultStats is the type of QueueStats.Faults; always zero on the
// lossless fabric.
type FaultStats = fabric.FaultStats

// Accumulate operations.
const (
	OpSum     = fabric.AccumSum
	OpReplace = fabric.AccumReplace
)

// Win is a collectively allocated RMA window with the paper's extended
// operation set.
type Win struct {
	p *Proc
	w *rma.Win
}

// Free collectively releases the window (MPI_Win_free).
func (w *Win) Free() { w.w.Free() }

// Buffer returns the local window memory.
func (w *Win) Buffer() []byte { return w.w.Buffer() }

// Size returns the window size in bytes.
func (w *Win) Size() int { return w.w.Size() }

// Put writes data to target's window at targetOff (MPI_Put). The handle
// is detached — completion is observed via Flush — so the NIC can recycle
// it and keep the steady-state put path allocation-free.
func (w *Win) Put(target, targetOff int, data []byte) {
	w.w.Put(target, targetOff, data).Detach()
}

// Get reads len(dst) bytes from target's window at targetOff (MPI_Get);
// completion requires Flush or an epoch close.
func (w *Win) Get(target, targetOff int, dst []byte) {
	w.w.Get(target, targetOff, dst).Detach()
}

// Accumulate applies an element-wise float64 reduction at the target
// (MPI_Accumulate with MPI_SUM or MPI_REPLACE).
func (w *Win) Accumulate(target, targetOff int, vals []float64, op AccumOp) {
	w.w.Accumulate(target, targetOff, vals, op).Detach()
}

// FetchAndOp atomically adds delta to the uint64 at targetOff and returns
// the previous value (MPI_Fetch_and_op with MPI_SUM), blocking.
func (w *Win) FetchAndOp(target, targetOff int, delta uint64) uint64 {
	return w.w.FetchAndOp(target, targetOff, delta)
}

// CompareAndSwap atomically swaps the uint64 at targetOff if it equals
// compare, returning the previous value (MPI_Compare_and_swap).
func (w *Win) CompareAndSwap(target, targetOff int, compare, swap uint64) uint64 {
	return w.w.CompareAndSwap(target, targetOff, compare, swap)
}

// Flush completes all operations to target at the target
// (MPI_Win_flush).
func (w *Win) Flush(target int) { w.w.Flush(target) }

// FlushAll completes all outstanding operations (MPI_Win_flush_all).
func (w *Win) FlushAll() { w.w.FlushAll() }

// Fence collectively closes the epoch (MPI_Win_fence).
func (w *Win) Fence() { w.w.Fence() }

// Post opens an exposure epoch to the origin group (MPI_Win_post).
func (w *Win) Post(origins []int) { w.w.Post(origins) }

// Start opens an access epoch to the target group (MPI_Win_start).
func (w *Win) Start(targets []int) { w.w.Start(targets) }

// Complete closes the access epoch (MPI_Win_complete).
func (w *Win) Complete() { w.w.Complete() }

// Wait closes the exposure epoch (MPI_Win_wait).
func (w *Win) Wait() { w.w.Wait() }

// Lock opens a passive-target epoch (MPI_Win_lock).
func (w *Win) Lock(target int, exclusive bool) { w.w.Lock(target, exclusive) }

// Unlock closes a passive-target epoch (MPI_Win_unlock).
func (w *Win) Unlock(target int, exclusive bool) { w.w.Unlock(target, exclusive) }

// Load64 atomically reads a local window word (safe against concurrent
// remote deliveries; for polling consumers).
func (w *Win) Load64(off int) uint64 { return w.w.Load64(off) }

// Store64 atomically writes a local window word.
func (w *Win) Store64(off int, v uint64) { w.w.Store64(off, v) }

// PutNotify writes data into target's window and delivers a <source, tag>
// notification with it in a single network transaction (MPI_Put_notify).
// Zero-length data sends a pure notification.
func (w *Win) PutNotify(target, targetOff int, data []byte, tag int) {
	core.PutNotify(w.w, target, targetOff, data, tag).Detach()
}

// IGet starts a plain RMA read from target's window into dst (no
// notification at the target) and returns a handle: Await blocks until
// the data landed, Done polls. This is the async read primitive services
// build on (Get fires and forgets; remote reads run under the target's
// region lock, so a read sees any single remote commit entirely or not at
// all).
func (w *Win) IGet(target, targetOff int, dst []byte) *GetHandle {
	return &GetHandle{op: w.w.Get(target, targetOff, dst), p: w.p}
}

// GetNotify reads from target's window into dst and notifies the target
// that its buffer was read (MPI_Get_notify). The returned handle's Await
// blocks until the data lands locally.
func (w *Win) GetNotify(target, targetOff int, dst []byte, tag int) *GetHandle {
	return &GetHandle{op: core.GetNotify(w.w, target, targetOff, dst, tag), p: w.p}
}

// AccumulateNotify is the notified variant of Accumulate.
func (w *Win) AccumulateNotify(target, targetOff int, vals []float64, op AccumOp, tag int) {
	core.AccumulateNotify(w.w, target, targetOff, vals, op, tag).Detach()
}

// NotifyInit allocates a persistent notification request matching
// (source, tag) — wildcards allowed — that completes after expectedCount
// matching notified accesses (MPI_Notify_init).
func (w *Win) NotifyInit(source, tag, expectedCount int) *Request {
	return &Request{r: core.NotifyInit(w.w, source, tag, expectedCount)}
}

// ProbeNotify blocks until a notification matching (source, tag) is
// available on this window, without consuming it.
func (w *Win) ProbeNotify(source, tag int) Status {
	st := core.Probe(w.w, source, tag)
	return Status{Source: st.Source, Tag: st.Tag}
}

// IprobeNotify reports whether a matching notification is available,
// without consuming it.
func (w *Win) IprobeNotify(source, tag int) (Status, bool) {
	st, ok := core.Iprobe(w.w, source, tag)
	return Status{Source: st.Source, Tag: st.Tag}, ok
}

// MatchStats is a snapshot of one window's notification-matcher counters:
// unexpected-store depth and high water, armed-request depth and high
// water, and ingest/match totals.
type MatchStats = core.MatchStats

// MatchStats returns this rank's matcher counters for the window
// (diagnostics; zero value before any notification activity).
func (w *Win) MatchStats() MatchStats { return core.MatcherStats(w.w) }

// PendingNotifications returns the depth of this rank's unexpected
// notification store for the window (notifications not yet claimed by any
// armed request).
func (w *Win) PendingNotifications() int { return core.PendingNotifications(w.w) }

// AMsg is the view of one matched notification handed to an active-message
// handler: source rank, tag, and the payload's location in the window.
// Data() returns the deposited bytes in place.
type AMsg = core.AMsg

// AMConfig tunes the rank's active-message engine (worker count, queue
// bound). Applied by the first RegisterHandlerCfg call at the rank.
type AMConfig = core.AMConfig

// AMClassStats is the per-tag-class active-message counter snapshot.
type AMClassStats = core.AMClassStats

// HandlerReg is one live active-message registration.
type HandlerReg struct {
	r *core.HandlerReg
}

// Unregister detaches the handler; queued dispatches still run, new
// notifications of the class feed the request matcher again. Idempotent.
func (r *HandlerReg) Unregister() { r.r.Unregister() }

// RegisterHandler attaches an active-message handler to (window, tag):
// every arriving notification of that class runs fn at this rank — on a
// bounded worker pool under the wall-clock engines, in deterministic
// kernel-context order under Sim — instead of feeding the request
// matcher. tag may be AnyTag to catch the window's unclaimed classes. A
// handler panic is isolated and counted (QueueStats.AM[tag].Panics); when
// the dispatch queue is full the notification is shed and counted as
// Dropped. Handlers may issue chained notified puts via ChainPutNotify
// but must not block or call FlushHandlers.
func (w *Win) RegisterHandler(tag int, fn func(m *AMsg)) *HandlerReg {
	return &HandlerReg{r: core.RegisterHandler(w.w, tag, fn)}
}

// RegisterHandlerCfg is RegisterHandler with engine configuration (first
// registration at the rank wins).
func (w *Win) RegisterHandlerCfg(tag int, fn func(m *AMsg), cfg AMConfig) *HandlerReg {
	return &HandlerReg{r: core.RegisterHandlerCfg(w.w, tag, fn, cfg)}
}

// ChainPutNotify is PutNotify callable from active-message handler
// context (no origin rank to charge or park): handlers use it to chain
// completion notifications — acks, forwards, fan-outs — off a dispatch.
func (w *Win) ChainPutNotify(target, targetOff int, data []byte, tag int) {
	core.ChainPutNotify(w.w, target, targetOff, data, tag).Detach()
}

// CommitLocal writes data into the local window at off under the same
// region lock remote puts commit under — the owner-side store that is
// race-safe against concurrent remote gets (each remote read sees the
// write entirely or not at all). AM handlers use it to apply updates to
// window-backed state that other ranks read with RMA.
func (w *Win) CommitLocal(off int, data []byte) { w.w.CommitLocal(off, data) }

// ReadLocal reads len(dst) bytes at off from the local window under the
// region read lock — the owner-side load that is race-safe against
// concurrent remote puts.
func (w *Win) ReadLocal(off int, dst []byte) { w.w.ReadLocal(off, dst) }

// FlushHandlers blocks until every active-message dispatch enqueued at
// this rank before the call has run to completion. It is local: it says
// nothing about notifications still in flight on the wire (pair it with a
// Barrier or an application-level ack for global quiescence).
func (p *Proc) FlushHandlers() { core.FlushAM(p.p) }

// JoinAMWorkers blocks until this rank's active-message worker goroutines
// have exited. Call only after every handler is unregistered (or its
// windows freed); a no-op under Sim. Shutdown hygiene for goroutine-leak
// sensitive embedders.
func (p *Proc) JoinAMWorkers() { core.JoinAMWorkers(p.p) }

// QueueStats is a snapshot of one rank's NIC queue occupancy high-water
// marks (diagnostics).
type QueueStats struct {
	// DestCQHighWater is the maximum shared destination-CQ depth observed
	// (notifications delivered before a window matcher took ownership).
	DestCQHighWater int
	// RingHighWater is the maximum intra-node notification-ring occupancy.
	RingHighWater int
	// MsgHighWater is the maximum total control/data message backlog
	// observed across all class buckets. Polls and waits are keyed by
	// message class, so this is a protocol-pressure statistic (how far
	// producers ran ahead of consumers), not a scan-cost bound.
	MsgHighWater int
	// MsgClassHighWater breaks MsgHighWater down per message class
	// (barrier, MP eager/RTS/CTS/data, RMA post/complete/fence, user); a
	// class is present once its bucket exists — that is, once a message of
	// it has been enqueued, polled for, or waited on.
	MsgClassHighWater map[int]int
	// Pool is the job-wide transfer-buffer pool snapshot: how many payload
	// stagings hit the registered-buffer freelists instead of allocating
	// (Pool.HitRate() approaches 1 in steady state).
	Pool fabric.PoolStats
	// RegionLockContention counts data-plane region-lock acquisitions on
	// this rank's NIC that found the lock held — how often concurrent
	// traffic actually collided on one region after lock sharding (always 0
	// under the deterministic Sim engine).
	RegionLockContention int64
	// Faults is the link-repair snapshot: all-zero on every engine, since
	// every link is lossless and a failure is fail-stop (fabric.FaultStats).
	Faults fabric.FaultStats
	// Net is the TCP transport snapshot (frames and bytes each way on this
	// process's mesh endpoint, plus the batched data plane's syscall
	// counters: TxFlushes, RxReads, and the RxCoalesce frames-per-read
	// histogram); all-zero except under TransportTCP.
	Net netfab.Stats
	// ShmNet is the shared-memory transport snapshot (ring entries and
	// bulk bytes each way, compact/generic/fragmented frame counts, and
	// full-ring send stalls); all-zero except under TransportShm.
	ShmNet shmfab.Stats
	// AM is the per-tag-class active-message dispatch snapshot
	// (Dispatched/Queued/Dropped/Panics); nil when the rank never
	// registered a handler.
	AM map[int]AMClassStats
	// FT is the recovery-plane snapshot (mirrored writes, checkpoints,
	// restores, generations); all-zero when the rank never used the
	// fault-tolerance surface.
	FT FTStats
}

// QueueStats returns this rank's NIC queue high-water marks and data-plane
// counters.
func (p *Proc) QueueStats() QueueStats {
	n := p.p.NIC()
	qs := QueueStats{
		DestCQHighWater:      n.DestHighWater(),
		RingHighWater:        n.RingHighWater(),
		MsgHighWater:         n.MsgHighWater(),
		MsgClassHighWater:    n.MsgClassHighWater(),
		Pool:                 p.p.World().Fabric().PoolStats(),
		RegionLockContention: n.RegionLockContention(),
		Faults:               p.p.World().Fabric().FaultStats(),
		AM:                   core.AMStats(p.p),
	}
	if v, ok := p.p.Attached(ftKey{}); ok {
		qs.FT = v.(*ft.Manager).Stats()
	}
	if src := p.p.World().Fabric().NetStatsSource(); src != nil {
		if m, ok := src.(interface{ ReadStats() netfab.Stats }); ok {
			qs.Net = m.ReadStats()
		}
		if m, ok := src.(interface{ ReadStats() shmfab.Stats }); ok {
			qs.ShmNet = m.ReadStats()
		}
	}
	return qs
}

// WaitAll blocks until every request completes (MPI_Waitall).
func WaitAll(reqs ...*Request) {
	for _, r := range reqs {
		r.r.Wait()
	}
}

// WaitAny blocks until one request completes and returns its index
// (MPI_Waitany).
func WaitAny(reqs ...*Request) int {
	inner := make([]*core.Request, len(reqs))
	for i, r := range reqs {
		inner[i] = r.r
	}
	return core.WaitAny(inner...)
}

// TestAny returns the index of a completed request or -1 (MPI_Testany).
func TestAny(reqs ...*Request) int {
	inner := make([]*core.Request, len(reqs))
	for i, r := range reqs {
		inner[i] = r.r
	}
	return core.TestAny(inner...)
}

// GetHandle tracks an outstanding notified get at the origin.
type GetHandle struct {
	op interface {
		Await(*exec.Proc)
		Done() bool
		Err() error
	}
	p *Proc
}

// Await blocks until the get's data has landed locally.
func (h *GetHandle) Await() {
	h.op.Await(h.p.p.Proc)
	if err := h.op.Err(); err != nil {
		// The target died before the data landed: surface the typed
		// peer failure (like a blocked Request.Wait) rather than letting
		// the caller read a buffer the get never filled.
		panic(err)
	}
}

// Done reports whether the get's data has landed locally (non-blocking;
// polling alternative to Await for overlap-heavy clients).
func (h *GetHandle) Done() bool { return h.op.Done() }

// Request is a persistent notification request (MPI_Notify_init /
// MPI_Start / MPI_Test / MPI_Wait / MPI_Request_free).
type Request struct {
	r *core.Request
}

// Start arms the request for a new matching round (MPI_Start).
func (r *Request) Start() { r.r.Start() }

// Test advances matching without blocking and reports completion
// (MPI_Test).
func (r *Request) Test() bool { return r.r.Test() }

// Wait blocks until the request completes and returns the status of the
// last matching notified access (MPI_Wait).
func (r *Request) Wait() Status {
	st := r.r.Wait()
	return Status{Source: st.Source, Tag: st.Tag}
}

// Free releases the request (MPI_Request_free).
func (r *Request) Free() { r.r.Free() }

// Isend starts a non-blocking tagged send (MPI_Isend).
func (p *Proc) Isend(target, tag int, data []byte) *SendRequest {
	return &SendRequest{c: mp.New(p.p), r: mp.New(p.p).Isend(target, tag, data)}
}

// Irecv posts a non-blocking tagged receive (MPI_Irecv).
func (p *Proc) Irecv(buf []byte, source, tag int) *RecvRequest {
	return &RecvRequest{c: mp.New(p.p), r: mp.New(p.p).Irecv(buf, source, tag)}
}

// Sendrecv is the deadlock-free exchange primitive (MPI_Sendrecv).
func (p *Proc) Sendrecv(sendTo, sendTag int, sendData []byte, recvBuf []byte, recvFrom, recvTag int) Status {
	st := mp.New(p.p).Sendrecv(sendTo, sendTag, sendData, recvBuf, recvFrom, recvTag)
	return Status{Source: st.Source, Tag: st.Tag, Count: st.Count}
}

// Iprobe reports whether a matching message is available without
// receiving it (MPI_Iprobe).
func (p *Proc) Iprobe(source, tag int) (Status, bool) {
	st, ok := mp.New(p.p).Iprobe(source, tag)
	return Status{Source: st.Source, Tag: st.Tag, Count: st.Count}, ok
}

// SendRequest tracks a non-blocking send.
type SendRequest struct {
	c *mp.Comm
	r *mp.SendReq
}

// Wait blocks until the send completes locally.
func (s *SendRequest) Wait() { s.c.WaitSend(s.r) }

// Test makes progress and reports completion.
func (s *SendRequest) Test() bool { return s.c.TestSend(s.r) }

// RecvRequest tracks a non-blocking receive.
type RecvRequest struct {
	c *mp.Comm
	r *mp.RecvReq
}

// Wait blocks until the receive completes and returns its status.
func (r *RecvRequest) Wait() Status {
	st := r.c.WaitRecv(r.r)
	return Status{Source: st.Source, Tag: st.Tag, Count: st.Count}
}

// Test makes progress and reports completion.
func (r *RecvRequest) Test() (Status, bool) {
	st, done := r.c.TestRecv(r.r)
	return Status{Source: st.Source, Tag: st.Tag, Count: st.Count}, done
}

// BarrierColl is the scalable dissemination barrier (MPI_Barrier).
func (p *Proc) BarrierColl() { coll.Barrier(mp.New(p.p)) }

// Bcast broadcasts buf from root to all ranks (MPI_Bcast).
func (p *Proc) Bcast(root int, buf []byte) { coll.Bcast(mp.New(p.p), root, buf) }

// Reduce sums vals element-wise onto root (MPI_Reduce); nil elsewhere.
func (p *Proc) Reduce(root int, vals []float64) []float64 {
	return coll.Reduce(mp.New(p.p), root, vals)
}

// Allreduce sums vals element-wise on every rank (MPI_Allreduce).
func (p *Proc) Allreduce(vals []float64) []float64 {
	return coll.Allreduce(mp.New(p.p), vals)
}

// Gather collects equal-size blocks at root in rank order (MPI_Gather).
func (p *Proc) Gather(root int, block []byte) []byte {
	return coll.Gather(mp.New(p.p), root, block)
}

// Scatter distributes equal-size blocks from root (MPI_Scatter).
func (p *Proc) Scatter(root int, blocks []byte, blockSize int) []byte {
	return coll.Scatter(mp.New(p.p), root, blocks, blockSize)
}

// Alltoall exchanges equal-size blocks among all ranks (MPI_Alltoall).
func (p *Proc) Alltoall(in []byte, blockSize int) []byte {
	return coll.Alltoall(mp.New(p.p), in, blockSize)
}

// RPut starts a request-based put (MPI_Rput): the handle completes at
// remote commitment.
func (w *Win) RPut(target, targetOff int, data []byte) *OpHandle {
	return &OpHandle{op: w.w.Put(target, targetOff, data), p: w.p}
}

// RGet starts a request-based get (MPI_Rget): the handle completes when
// the data lands locally.
func (w *Win) RGet(target, targetOff int, dst []byte) *OpHandle {
	return &OpHandle{op: w.w.Get(target, targetOff, dst), p: w.p}
}

// OpHandle tracks an outstanding one-sided operation.
type OpHandle struct {
	op *fabric.Op
	p  *Proc
}

// Wait blocks until the operation completes.
func (h *OpHandle) Wait() { h.op.Await(h.p.p.Proc) }

// Done reports completion without blocking.
func (h *OpHandle) Done() bool { return h.op.Done() }
