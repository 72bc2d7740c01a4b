// Package runtime wires the execution engine and the fabric into a "job":
// N ranks running an SPMD body, each holding a Proc handle that bundles its
// exec.Proc with its NIC. The communication layers (internal/mp,
// internal/rma, internal/core) attach per-rank endpoints to the Proc.
package runtime

import (
	"fmt"
	"sync"

	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/loggp"
)

// Message-class registry: every layer multiplexing the NIC message queue
// draws its discriminator values from here so they can never collide.
const (
	// ClassBarrier is used by Proc.Barrier.
	ClassBarrier = 1
	// ClassMPEager carries an eager message-passing payload.
	ClassMPEager = 10
	// ClassMPRTS is a rendezvous request-to-send.
	ClassMPRTS = 11
	// ClassMPCTS is a rendezvous clear-to-send.
	ClassMPCTS = 12
	// ClassMPData is a rendezvous payload.
	ClassMPData = 13
	// ClassRMAPost is a PSCW post notification (target -> origin).
	ClassRMAPost = 20
	// ClassRMAComplete is a PSCW completion notification (origin -> target).
	ClassRMAComplete = 21
	// ClassRMAFence is the fence barrier.
	ClassRMAFence = 22
	// ClassUser is the first class value free for applications.
	ClassUser = 100
)

// Options configures a job.
type Options struct {
	// Ranks is the number of SPMD processes.
	Ranks int
	// Mode selects the engine: exec.Sim (deterministic virtual time) or
	// exec.Real (wall clock).
	Mode exec.Mode
	// RanksPerNode controls which rank pairs use the SHM transport
	// (default 1: all inter-node).
	RanksPerNode int
	// Model supplies LogGP/overhead constants; zero value means
	// loggp.DefaultCrayXC30.
	Model *loggp.Model
	// EagerThreshold is the largest message (bytes) sent eagerly by the
	// message-passing layer; larger messages use rendezvous. Default 8192
	// (the kink the paper observes at 8 KB).
	EagerThreshold int
	// DisableOverheads turns off modeled o_s charging (used by a few
	// calibration tests).
	DisableOverheads bool
	// UnreliableNetwork switches notified gets to the deferred-notification
	// protocol (paper §VIII: the target learns its buffer is free only
	// after the data reached the origin). Shorthand for
	// GetNotifyMode = fabric.GetNotifyDeferred.
	UnreliableNetwork bool
	// GetNotifyMode selects the notified-GET notification protocol
	// (immediate / origin-ordered / deferred); see fabric.GetNotifyMode.
	GetNotifyMode fabric.GetNotifyMode
	// Trace receives one event per delivered packet (protocol audits).
	Trace func(fabric.TraceEvent)
	// FaultPlan, when non-nil, crashes or hangs the ranks it names (see
	// internal/fault); survivors learn of the failure after the liveness
	// timeout, as ErrPeerFailed.
	FaultPlan *fault.Plan
	// OnPeerFailure, when non-nil, is called once per surviving rank that
	// learns a rank is dead (observer is that survivor). It runs in
	// delivery/timer context and must not block on fabric operations.
	OnPeerFailure func(observer, failed int, err error)
	// Env, when non-nil, supplies the execution engine instead of
	// exec.New(Mode); its mode must agree with Mode. The interleaving
	// checker (internal/check) injects a Sim engine driven by an exploring
	// scheduler here so whole-world workloads run under permuted schedules.
	Env Engine
}

// Engine is what a World needs from its execution engine: the Env surface
// plus the ability to host an SPMD run.
type Engine interface {
	exec.Env
	Run(n int, body func(p *exec.Proc)) error
}

func (o Options) withDefaults() Options {
	if o.RanksPerNode <= 0 {
		o.RanksPerNode = 1
	}
	if o.Model == nil {
		m := loggp.DefaultCrayXC30()
		o.Model = &m
	}
	if o.EagerThreshold == 0 {
		o.EagerThreshold = 8192
	}
	return o
}

// World is one job: engine + fabric + configuration.
type World struct {
	opts Options
	env  Engine
	fab  *fabric.Fabric

	// Peer-failure fan-out: the fabric's FailureHook lands here and is
	// forwarded to every registered per-rank listener plus the job-level
	// Options.OnPeerFailure callback.
	failMu        sync.Mutex
	failListeners []func(failed int, err error)
}

// NewWorld builds a world without running it (tests and benchmarks that
// need access to the fabric before/after the run use this).
func NewWorld(opts Options) *World {
	opts = opts.withDefaults()
	if opts.Ranks <= 0 {
		panic(fmt.Sprintf("runtime: invalid rank count %d", opts.Ranks))
	}
	env := opts.Env
	if env == nil {
		env = exec.New(opts.Mode)
	} else if env.Mode() != opts.Mode {
		panic(fmt.Sprintf("runtime: injected engine mode %v != Options.Mode %v", env.Mode(), opts.Mode))
	}
	w, cfg := newWorld(opts, env)
	w.fab = fabric.New(env, cfg)
	return w
}

// newWorld wires a world around env and assembles the fabric configuration
// the options imply; the caller builds the interconnect from it (in-process
// for NewWorld, one rank over a link for runRank). opts must already carry
// defaults.
func newWorld(opts Options, env Engine) (*World, fabric.Config) {
	if opts.UnreliableNetwork {
		opts.GetNotifyMode = fabric.GetNotifyDeferred
	}
	w := &World{opts: opts, env: env}
	return w, fabric.Config{
		Ranks:           opts.Ranks,
		RanksPerNode:    opts.RanksPerNode,
		Model:           *opts.Model,
		ChargeOverheads: !opts.DisableOverheads,
		GetNotifyMode:   opts.GetNotifyMode,
		Trace:           opts.Trace,
		FaultPlan:       opts.FaultPlan,
		FailureHook:     w.announcePeerFailure,
	}
}

// announcePeerFailure fans a detected rank failure out to every registered
// listener and the job-level callback. Runs in delivery/timer context.
func (w *World) announcePeerFailure(observer, failed int, err error) {
	w.failMu.Lock()
	var listeners []func(failed int, err error)
	listeners = append(listeners, w.failListeners...)
	w.failMu.Unlock()
	for _, fn := range listeners {
		fn(failed, err)
	}
	if w.opts.OnPeerFailure != nil {
		w.opts.OnPeerFailure(observer, failed, err)
	}
}

// Fabric returns the world's interconnect.
func (w *World) Fabric() *fabric.Fabric { return w.fab }

// Env returns the world's execution engine.
func (w *World) Env() exec.Env { return w.env }

// Options returns the (defaulted) options.
func (w *World) Options() Options { return w.opts }

// Run executes body on every rank and returns when all ranks finish.
func (w *World) Run(body func(p *Proc)) error {
	defer w.fab.Close()
	return w.env.Run(w.opts.Ranks, func(ep *exec.Proc) {
		body(&Proc{Proc: ep, world: w, nic: w.fab.NIC(ep.Rank())})
	})
}

// Run is the one-call entry point: build a world and run body on each rank.
func Run(opts Options, body func(p *Proc)) error {
	return NewWorld(opts).Run(body)
}

// WindowObserver is notified of RMA window lifecycle events on this rank.
// The Notified Access layer uses it to install and remove per-window
// notification sinks on the NIC. Observers run on the owning rank's
// goroutine, in window creation/teardown program order.
type WindowObserver interface {
	// WindowCreated reports that the window backed by the given user region
	// is registered and remotely accessible on this rank.
	WindowCreated(userRegionID int)
	// WindowFreed reports that the window is being torn down; the region is
	// still registered when the call is made.
	WindowFreed(userRegionID int)
}

// Proc is the per-rank handle: the exec.Proc plus this rank's NIC and world.
type Proc struct {
	*exec.Proc
	world *World
	nic   *fabric.NIC

	// attachments holds per-rank layer endpoints (mp.Comm etc.), keyed by
	// a layer-chosen key. Only the owning rank touches it.
	attachments map[any]any

	// Window lifecycle registry (owning rank only, like attachments).
	windowObservers []WindowObserver
	liveWindows     []int // user region IDs of currently live windows
}

// World returns the job this rank belongs to.
func (p *Proc) World() *World { return p.world }

// OnPeerFailure registers fn to run when the fabric declares a rank dead.
// Layers blocked on per-rank state (e.g. the notification matcher's wait
// gate) register here so their parked consumers observe the failure. fn
// runs in delivery/timer context: it must not block on fabric operations.
// Listeners are job-wide, so on the single-process engines fn runs once per
// surviving rank that observes the failure: keep it idempotent.
func (p *Proc) OnPeerFailure(fn func(failed int, err error)) {
	w := p.world
	w.failMu.Lock()
	w.failListeners = append(w.failListeners, fn)
	w.failMu.Unlock()
}

// NIC returns this rank's network interface.
func (p *Proc) NIC() *fabric.NIC { return p.nic }

// Model returns the LogGP model in force.
func (p *Proc) Model() loggp.Model { return *p.world.opts.Model }

// Attach stores a per-rank layer endpoint under key if absent and returns
// the stored value. Layers use it to hang their per-rank state off the Proc.
func (p *Proc) Attach(key any, mk func() any) any {
	if p.attachments == nil {
		p.attachments = map[any]any{}
	}
	if v, ok := p.attachments[key]; ok {
		return v
	}
	v := mk()
	p.attachments[key] = v
	return v
}

// Attached returns the endpoint stored under key without creating one.
func (p *Proc) Attached(key any) (any, bool) {
	v, ok := p.attachments[key]
	return v, ok
}

// AddWindowObserver registers o for window lifecycle events on this rank
// and replays WindowCreated for every window already live, so an observer
// attached lazily (on first use of its layer) still learns about earlier
// windows. Only the owning rank may call it.
func (p *Proc) AddWindowObserver(o WindowObserver) {
	p.windowObservers = append(p.windowObservers, o)
	for _, id := range p.liveWindows {
		o.WindowCreated(id)
	}
}

// AnnounceWindow reports a newly registered window's user region to all
// observers. The rma layer calls it from Allocate.
func (p *Proc) AnnounceWindow(userRegionID int) {
	p.liveWindows = append(p.liveWindows, userRegionID)
	for _, o := range p.windowObservers {
		o.WindowCreated(userRegionID)
	}
}

// AnnounceWindowFreed reports window teardown to all observers. The rma
// layer calls it from Win.Free before deregistering the region.
func (p *Proc) AnnounceWindowFreed(userRegionID int) {
	for i, id := range p.liveWindows {
		if id == userRegionID {
			p.liveWindows = append(p.liveWindows[:i], p.liveWindows[i+1:]...)
			break
		}
	}
	for _, o := range p.windowObservers {
		o.WindowFreed(userRegionID)
	}
}

// Barrier blocks until every rank has entered it. It is a centralized
// (gather + release) barrier over control messages; the layers above use it
// for setup synchronization (e.g. after memory registration, mirroring real
// RDMA rkey exchange).
func (p *Proc) Barrier() {
	n := p.N()
	if n == 1 {
		return
	}
	// ClassBarrier header: {phase} — 0 gather (rank → root), 1 release.
	// Plain class-FIFO pops are safe here: rank 0 only ever receives the
	// gather messages (and cannot observe barrier k+1 arrivals before it
	// finishes collecting barrier k), while non-roots only ever receive the
	// release.
	const gather, release = 0, 1
	if p.Rank() == 0 {
		for i := 1; i < n; i++ {
			m := p.nic.WaitMsgClass(p.Proc, ClassBarrier)
			if m.Hdr[0] != gather {
				panic("runtime: barrier release received at root")
			}
		}
		for i := 1; i < n; i++ {
			p.nic.PostMsg(p.Proc, i, ClassBarrier, fabric.MsgHdr{release}, nil, false)
		}
	} else {
		p.nic.PostMsg(p.Proc, 0, ClassBarrier, fabric.MsgHdr{gather}, nil, false)
		m := p.nic.WaitMsgClass(p.Proc, ClassBarrier)
		if m.Hdr[0] != release {
			panic("runtime: barrier gather received at non-root")
		}
	}
}
