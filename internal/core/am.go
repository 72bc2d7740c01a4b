package core

import (
	"fmt"
	"sync"

	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/match"
	"repro/internal/rma"
	"repro/internal/runtime"
)

// Active messages: a registered handler runs at the *target* when a
// notification matches, instead of (or before) crediting an armed request.
// This turns the notified put from a synchronization primitive into a
// serving primitive (Besta & Hoefler's Active Access): the producer's
// single network transaction both deposits the payload in the target
// window and invokes computation over it.
//
// Semantics:
//
//   - Registration is keyed by (window, tag); a handler registered with
//     AnyTag catches every tag on the window that has no exact-tag handler.
//     Tags with a registered handler are consumed by the AM layer — they
//     never match armed NotifyInit requests and never enter the
//     unexpected store, so a window can mix AM classes and plain
//     notification classes by tag.
//   - Dispatch order follows notification ingestion order at the rank,
//     which on the lossless fabric preserves per-(origin,window,tag)
//     arrival order. Handlers for one rank run one at a time under Sim
//     (kernel-context drain) and on Workers goroutines under the
//     wall-clock engines — with Workers > 1, handlers for different
//     notifications may run concurrently and complete out of order.
//   - Back-pressure is a bounded per-rank queue: when it is full the
//     notification is shed and counted in AMClassStats.Dropped (Deliver
//     runs in kernel context — under Sim, inline on the goroutine holding
//     the baton — or on the delivering goroutine, and must never block).
//     Services that cannot tolerate sheds bound their in-flight request
//     count below the queue capacity (see internal/kv's credit window).
//   - A handler panic is isolated: it is recovered, counted in
//     AMClassStats.Panics, and the worker moves on. The payload window
//     remains valid; no state is rolled back.
//   - Register before the first matching notification can arrive
//     (typically before the epoch that exposes the window — a barrier
//     after registration suffices). The unexpected store keeps only
//     notification envelopes, not payload locations, so a notification
//     that arrives before registration feeds the request matcher and can
//     never be retro-dispatched to a handler.
//   - Handlers may chain: ChainPutNotify issues a notified put from
//     handler context (no origin rank to charge or park). Handlers must
//     not call FlushAM, Wait, or any parking call — under Sim they run in
//     kernel context, inline in whichever parked or finished rank holds
//     the baton, where nothing may park.
type amKey struct {
	region int
	tag    int
}

// AMConfig tunes the per-rank AM engine. The zero value selects defaults.
// The engine is created by the first RegisterHandlerCfg call at the rank;
// later registrations reuse it and their cfg is ignored.
type AMConfig struct {
	// Workers is the number of handler goroutines under the wall-clock
	// engines (default 2). The Sim engine ignores it: handlers run one at
	// a time in kernel context to keep virtual time deterministic.
	Workers int
	// Queue bounds the pending-dispatch queue (default 256). A matched
	// notification arriving with the queue full is shed and counted as
	// Dropped.
	Queue int
}

const (
	defaultAMWorkers = 2
	defaultAMQueue   = 256
)

// AMClassStats is the per-tag-class dispatch counter snapshot.
type AMClassStats struct {
	// Dispatched counts handler invocations that ran to completion
	// (including panicked ones).
	Dispatched uint64
	// Dropped counts notifications shed because the queue was full (plus
	// queued dispatches discarded when their window was freed).
	Dropped uint64
	// Panics counts recovered handler panics.
	Panics uint64
	// Queued is the current pending-dispatch depth for the class.
	Queued int
	// QueuedHighWater is the maximum pending depth observed.
	QueuedHighWater int
}

func (a *AMClassStats) merge(b AMClassStats) {
	a.Dispatched += b.Dispatched
	a.Dropped += b.Dropped
	a.Panics += b.Panics
	a.Queued += b.Queued
	if b.QueuedHighWater > a.QueuedHighWater {
		a.QueuedHighWater = b.QueuedHighWater
	}
}

// AMsg is the view of one matched notification handed to a handler.
type AMsg struct {
	// Source is the origin rank decoded from the immediate.
	Source int
	// Tag is the notification tag decoded from the immediate.
	Tag int
	// Offset and Len locate the deposited payload inside the window
	// (Len is 0 for a pure notification).
	Offset int
	Len    int
	win    *rma.Win
}

// Window returns the window the notification targeted.
func (m *AMsg) Window() *rma.Win { return m.win }

// Data returns the deposited payload bytes in place (zero-copy). The
// slice aliases the window buffer and is stable only until the origin is
// told it may reuse the slot (e.g. by a chained ack) — copy first when in
// doubt.
func (m *AMsg) Data() []byte {
	b := m.win.Buffer()
	return b[m.Offset : m.Offset+m.Len : m.Offset+m.Len]
}

// Handler runs at the target when a notification matches its class.
type Handler func(m *AMsg)

// HandlerReg is one live registration; Unregister detaches it.
type HandlerReg struct {
	s    *naState
	key  amKey
	win  *rma.Win
	fn   Handler
	dead bool

	// Counters, guarded by s.mu.
	dispatched uint64
	dropped    uint64
	panics     uint64
	queued     int
	queuedHW   int
}

// amEvent is one pending handler dispatch.
type amEvent struct {
	reg *HandlerReg
	src int
	tag int
	off int
	n   int
}

// amEngine is the per-rank dispatch state, guarded by naState.mu. The
// pending queue reuses the match package's FIFO (the same container
// backing the posted-request and unexpected-store buckets), so the AM
// layer rides the existing dispatch engine rather than growing its own.
type amEngine struct {
	s    *naState
	cfg  AMConfig
	regs map[amKey]*HandlerReg
	q    match.FIFO[amEvent]

	// retired accumulates counters of unregistered handlers per tag so
	// stats survive unregistration and window frees.
	retired map[int]AMClassStats

	// matched counts every notification routed to the AM layer (feeds the
	// planted redelivery defect).
	matched uint64

	// plantRedeliverNth, when > 0, dispatches the Nth matched notification
	// (1-based) twice, breaking exactly-once. Test-only: armed solely by
	// SetAMPlantRedeliverNth so the checker can prove it catches the defect.
	plantRedeliverNth int

	// enqueued/completed meter dispatch progress for FlushAM: a dispatch
	// is enqueued when pushed and completed when its handler returned (or
	// was discarded by a window free). Sheds are never enqueued.
	enqueued  uint64
	completed uint64

	// Sim: a kernel drain event is scheduled (or running).
	draining bool

	// Wall-clock engines: worker pool. stop is non-nil while workers are
	// live and is closed (then nilled) when the last handler unregisters;
	// wake is buffered to Workers so a push cannot miss all idle workers.
	wake chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
}

// amEngineLocked returns the rank's AM engine, creating it on first use
// with cfg (defaults applied). Callers hold s.mu.
func (s *naState) amEngineLocked(cfg AMConfig) *amEngine {
	if s.am == nil {
		if cfg.Workers <= 0 {
			cfg.Workers = defaultAMWorkers
		}
		if cfg.Queue <= 0 {
			cfg.Queue = defaultAMQueue
		}
		s.am = &amEngine{
			s:       s,
			cfg:     cfg,
			regs:    map[amKey]*HandlerReg{},
			retired: map[int]AMClassStats{},
			wake:    make(chan struct{}, cfg.Workers),
		}
	}
	return s.am
}

// RegisterHandler attaches fn to (win, tag) with default AMConfig.
func RegisterHandler(win *rma.Win, tag int, fn Handler) *HandlerReg {
	return RegisterHandlerCfg(win, tag, fn, AMConfig{})
}

// RegisterHandlerCfg attaches fn to (win, tag): every arriving
// notification on win whose tag matches runs fn at this rank instead of
// feeding the request matcher. tag may be AnyTag to catch all classes of
// the window that have no exact-tag handler. cfg configures the rank's AM
// engine on first registration only. Registering a duplicate (win, tag)
// panics; unregister the old handler first.
func RegisterHandlerCfg(win *rma.Win, tag int, fn Handler, cfg AMConfig) *HandlerReg {
	if fn == nil {
		panic("core: RegisterHandler with nil handler")
	}
	if tag != AnyTag && (tag < 0 || tag > MaxTag) {
		panic(fmt.Sprintf("core: RegisterHandler tag %d out of range [0,%d]", tag, MaxTag))
	}
	s := state(win.Proc())
	key := amKey{region: win.UserRegionID(), tag: tag}
	s.mu.Lock()
	e := s.amEngineLocked(cfg)
	if e.regs[key] != nil {
		s.mu.Unlock()
		panic(fmt.Sprintf("core: duplicate AM handler for window region %d tag %d", key.region, key.tag))
	}
	reg := &HandlerReg{s: s, key: key, win: win, fn: fn}
	e.regs[key] = reg
	e.startWorkersLocked()
	s.mu.Unlock()
	return reg
}

// startWorkersLocked spins up the wall-clock worker pool if this engine
// needs one and it is not already running. Callers hold s.mu.
func (e *amEngine) startWorkersLocked() {
	env := e.s.p.Env()
	if !env.Mode().Wallclock() || e.stop != nil || len(e.regs) == 0 {
		return
	}
	stop := make(chan struct{})
	e.stop = stop
	var abort <-chan struct{}
	if re := exec.RealOf(env); re != nil {
		abort = re.Aborted()
	}
	for i := 0; i < e.cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker(stop, abort)
	}
}

// Unregister detaches the handler. Queued dispatches for it still run
// (and are counted in the class's retired record); new notifications for
// the class fall through to the request matcher again. When the last
// handler at the rank unregisters, the worker pool shuts down (drain
// first). Idempotent.
func (r *HandlerReg) Unregister() {
	s := r.s
	s.mu.Lock()
	if r.dead {
		s.mu.Unlock()
		return
	}
	r.dead = true
	e := s.am
	delete(e.regs, r.key)
	st := e.retired[r.key.tag]
	st.merge(AMClassStats{Dispatched: r.dispatched, Dropped: r.dropped, Panics: r.panics, QueuedHighWater: r.queuedHW})
	e.retired[r.key.tag] = st
	var stop chan struct{}
	if len(e.regs) == 0 && e.stop != nil {
		stop = e.stop
		e.stop = nil
	}
	s.mu.Unlock()
	if stop != nil {
		close(stop)
	}
}

// amFreeWindowLocked retires every registration on a freed window and
// discards its queued dispatches (counted as Dropped but also as
// completed so FlushAM stays meterable). It returns the worker stop
// channel to close, if the free retired the last handler. Callers hold
// s.mu.
func (s *naState) amFreeWindowLocked(regionID int) chan struct{} {
	e := s.am
	if e == nil {
		return nil
	}
	freed := false
	for key, reg := range e.regs {
		if key.region != regionID {
			continue
		}
		reg.dead = true
		delete(e.regs, key)
		st := e.retired[key.tag]
		st.merge(AMClassStats{Dispatched: reg.dispatched, Dropped: reg.dropped, Panics: reg.panics, QueuedHighWater: reg.queuedHW})
		e.retired[key.tag] = st
		freed = true
	}
	if freed {
		var keep match.FIFO[amEvent]
		for e.q.Len() > 0 {
			ev := e.q.Pop()
			if ev.reg.key.region == regionID {
				ev.reg.queued--
				ev.reg.dropped++
				st := e.retired[ev.tag]
				st.Dropped++
				e.retired[ev.tag] = st
				e.completed++
				continue
			}
			keep.Push(ev)
		}
		e.q = keep
	}
	if len(e.regs) == 0 && e.stop != nil {
		stop := e.stop
		e.stop = nil
		return stop
	}
	return nil
}

// amDispatchLocked routes one ingested notification to the AM layer.
// It reports whether the AM layer consumed it (dispatched or shed);
// false falls through to request matching. Callers hold s.mu.
func (s *naState) amDispatchLocked(cqe fabric.CQE, src, tag int) bool {
	e := s.am
	if e == nil {
		return false
	}
	reg := e.regs[amKey{region: cqe.RegionID, tag: tag}]
	if reg == nil {
		reg = e.regs[amKey{region: cqe.RegionID, tag: AnyTag}]
	}
	if reg == nil {
		return false
	}
	e.matched++
	n := 1
	if e.plantRedeliverNth > 0 && e.matched == uint64(e.plantRedeliverNth) {
		n = 2
	}
	for i := 0; i < n; i++ {
		if e.q.Len() >= e.cfg.Queue {
			reg.dropped++
			continue
		}
		e.q.Push(amEvent{reg: reg, src: src, tag: tag, off: cqe.Offset, n: cqe.Len})
		reg.queued++
		if reg.queued > reg.queuedHW {
			reg.queuedHW = reg.queued
		}
		e.enqueued++
		e.kickLocked()
	}
	return true
}

// kickLocked wakes the dispatch machinery after a push: under Sim it
// schedules a kernel drain event (deliveries at the same timestamp land
// first, so the drain observes every payload committed "now"); under the
// wall-clock engines it nudges an idle worker. Callers hold s.mu.
func (e *amEngine) kickLocked() {
	env := e.s.p.Env()
	if env.Mode().Wallclock() {
		select {
		case e.wake <- struct{}{}:
		default:
		}
		return
	}
	if !e.draining {
		e.draining = true
		env.Schedule(0, exec.PrioWake, e.drainSim)
	}
}

// drainSim runs queued handlers in kernel context (inline on the goroutine
// holding the baton), one at a time, with s.mu released around each
// handler (handlers may re-enter the registry or issue chained puts).
func (e *amEngine) drainSim() {
	s := e.s
	for {
		s.mu.Lock()
		if e.q.Len() == 0 {
			e.draining = false
			s.mu.Unlock()
			return
		}
		ev := e.q.Pop()
		ev.reg.queued--
		s.mu.Unlock()
		e.run(ev)
	}
}

// worker is one wall-clock dispatch goroutine. It drains the queue, parks
// on wake when idle, performs a final drain when the pool shuts down, and
// exits immediately on run abort.
func (e *amEngine) worker(stop chan struct{}, abort <-chan struct{}) {
	defer e.wg.Done()
	s := e.s
	pop := func() (amEvent, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if e.q.Len() == 0 {
			return amEvent{}, false
		}
		ev := e.q.Pop()
		ev.reg.queued--
		return ev, true
	}
	for {
		if ev, ok := pop(); ok {
			if e.run(ev) {
				return
			}
			continue
		}
		select {
		case <-e.wake:
		case <-stop:
			for {
				ev, ok := pop()
				if !ok {
					return
				}
				if e.run(ev) {
					return
				}
			}
		case <-abort:
			return
		}
	}
}

// run executes one dispatch with panic isolation and completion
// bookkeeping. It reports whether the run is aborting (the caller's
// goroutine should unwind without further bookkeeping).
func (e *amEngine) run(ev amEvent) (aborted bool) {
	s := e.s
	panicked := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if exec.IsAbortPanic(r) {
					aborted = true
					return
				}
				panicked = true
			}
		}()
		ev.reg.fn(&AMsg{Source: ev.src, Tag: ev.tag, Offset: ev.off, Len: ev.n, win: ev.reg.win})
	}()
	if aborted {
		return true
	}
	s.mu.Lock()
	if ev.reg.dead {
		// Unregistered (or its window freed) while this dispatch was queued
		// or running: its counters were already folded into the class's
		// retired record, which nothing re-reads from the registration.
		st := e.retired[ev.reg.key.tag]
		st.Dispatched++
		if panicked {
			st.Panics++
		}
		e.retired[ev.reg.key.tag] = st
	} else {
		ev.reg.dispatched++
		if panicked {
			ev.reg.panics++
		}
	}
	e.completed++
	s.mu.Unlock()
	s.gate.Broadcast()
	return false
}

// FlushAM blocks the calling rank until every handler dispatch enqueued
// at this rank before the call has completed (the local analog of
// FlushHandlers; it says nothing about notifications still in flight on
// the wire). Handlers must not call it.
func FlushAM(p *runtime.Proc) {
	s := state(p)
	s.mu.Lock()
	e := s.am
	if e == nil {
		s.mu.Unlock()
		return
	}
	target := e.enqueued
	for e.completed < target {
		s.gate.Wait(p.Proc)
	}
	s.mu.Unlock()
}

// JoinAMWorkers blocks until the rank's AM worker goroutines have exited.
// Meaningful only after the last handler unregistered (or its windows
// were freed) — otherwise the pool is still live and this blocks. Used by
// shutdown paths and goroutine-leak tests; a no-op under Sim.
func JoinAMWorkers(p *runtime.Proc) {
	s := state(p)
	s.mu.Lock()
	e := s.am
	s.mu.Unlock()
	if e == nil {
		return
	}
	e.wg.Wait()
}

// AMStats snapshots per-tag-class dispatch counters at the rank, merging
// live registrations with retired ones. Tags that never had a handler are
// absent.
func AMStats(p *runtime.Proc) map[int]AMClassStats {
	s := state(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.am
	if e == nil {
		return nil
	}
	out := make(map[int]AMClassStats, len(e.retired)+len(e.regs))
	for tag, st := range e.retired {
		cp := st
		cp.Queued = 0
		out[tag] = cp
	}
	for _, reg := range e.regs {
		st := out[reg.key.tag]
		st.merge(AMClassStats{Dispatched: reg.dispatched, Dropped: reg.dropped, Panics: reg.panics, Queued: reg.queued, QueuedHighWater: reg.queuedHW})
		out[reg.key.tag] = st
	}
	return out
}

// SetAMPlantRedeliverNth arms the engine's planted at-least-twice defect
// (creating the engine if needed). Test-only: the internal/check AM model
// uses it to prove the checker catches a broken dispatch layer.
func SetAMPlantRedeliverNth(p *runtime.Proc, nth int) {
	s := state(p)
	s.mu.Lock()
	s.amEngineLocked(AMConfig{}).plantRedeliverNth = nth
	s.mu.Unlock()
}

// ChainPutNotify issues a notified put from handler context: identical on
// the wire to PutNotify but charged to no rank (handlers have no Proc to
// sleep). The source encoded in the immediate is still this rank. Safe
// from kernel context under Sim and from worker goroutines under the
// wall-clock engines.
func ChainPutNotify(win *rma.Win, target, targetOff int, data []byte, tag int) *fabric.Op {
	imm := fabric.WithImm(EncodeImm(win.Proc().Rank(), tag))
	return win.NIC().Put(nil, target, win.UserRegionID(), targetOff, data, imm)
}
