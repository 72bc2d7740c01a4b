// Package exec provides the execution engines that host simulated "ranks"
// (distributed-memory processes).
//
// Two engines implement the same Env interface:
//
//   - SimEnv is a process-oriented, conservative discrete-event simulator.
//     Each rank is a coroutine, and exactly one executes at any instant:
//     the one holding the baton. A rank that blocks (Sleep, Gate.Wait) runs
//     the event loop itself — event callbacks fire inline on it — until the
//     next event wakes a rank, and passes the baton to that rank by a
//     coroutine switch through Run's goroutine (or keeps it, when the wake
//     is its own). "Kernel context" means the coroutine holding the baton,
//     running the loop on a parked or finished rank's behalf. Time is
//     virtual (simtime.Time) and runs are deterministic: the same program
//     produces bit-identical event orders and timings. This engine is used
//     to regenerate the paper's figures with LogGP network costs.
//
//   - RealEnv runs ranks as ordinary goroutines under the wall clock, with
//     channel-based gates. It validates that the communication stack is
//     correct under true concurrency and backs the testing.B overhead
//     benchmarks.
//
// The wall-clock engines have one poll step: check for an abort, run the
// link's progress engine once (see RealEnv.SetProgress), and yield the
// processor if that found nothing. Proc.Yield and Proc.Poll are one step; a
// gate waiter takes a bounded number of steps before it parks on the
// gate's channel. A step never sleeps, so a rank that wants to idle blocks
// on a gate rather than looping on Yield.
//
// Application and library code is written once against Env/Proc/Gate and
// runs unmodified under either engine.
package exec

import (
	"fmt"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/simtime"
)

// Mode identifies the engine hosting a run.
type Mode int

const (
	// Sim is the deterministic virtual-time engine.
	Sim Mode = iota
	// Real is the wall-clock, true-concurrency engine.
	Real
	// Dist is the wall-clock engine hosting a single rank of a
	// multi-process run; remote ranks live in other OS processes reached
	// over a network link (internal/netfab).
	Dist
)

func (m Mode) String() string {
	switch m {
	case Sim:
		return "sim"
	case Real:
		return "real"
	case Dist:
		return "dist"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Wallclock reports whether the mode runs under the wall clock with true
// concurrency (Real and Dist) rather than virtual time. Code that used to
// test Mode() == Real to pick the concurrent path should test Wallclock.
func (m Mode) Wallclock() bool { return m == Real || m == Dist }

// Event priorities. Lower values fire first among events with equal
// timestamps. Network deliveries precede process wakeups so that a process
// woken at time t observes every delivery that "happened" at t.
const (
	PrioDelivery = 0
	PrioWake     = 1
)

// Env is the interface shared by both engines.
type Env interface {
	// Mode reports which engine this is.
	Mode() Mode
	// Now returns the current time: virtual nanoseconds under Sim, wall
	// nanoseconds since the start of the run under Real.
	Now() simtime.Time
	// Schedule arranges for fn to run after the given delay. Under Sim, fn
	// runs in kernel context — inline on whichever goroutine holds the
	// baton — and must not block; under Real it runs on its own goroutine.
	Schedule(after simtime.Duration, prio int, fn func())
	// NewGate creates a Gate bound to the locker protecting the state the
	// gate guards. See Gate.
	NewGate(l sync.Locker) Gate
}

// Gate is a condition-variable-like parking primitive. The contract mirrors
// sync.Cond: callers must hold the gate's locker, check their predicate in a
// loop, and call Wait while the predicate is false. Wait atomically releases
// the locker while parked and reacquires it before returning. Broadcast
// wakes all waiters; spurious wakeups are possible.
//
// Under Sim, Broadcast may be called from kernel context (event callbacks,
// on the goroutine holding the baton) or from a running rank. Wait requires
// a rank (Proc) because only ranks can park.
type Gate interface {
	Wait(p *Proc)
	Broadcast()
}

// procAbort is panicked inside rank goroutines to unwind them when the run
// is aborted (peer panic or deadlock); the spawn wrapper swallows it.
type procAbort struct{}

// DeadlockError is returned by SimEnv.Run when no events remain but ranks
// are still parked.
type DeadlockError struct {
	Parked []string // descriptions of parked ranks
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("simulation deadlock: %d rank(s) parked: %s",
		len(e.Parked), strings.Join(e.Parked, ", "))
}

// Proc is the per-rank handle. Every blocking or time-consuming operation a
// rank performs goes through its Proc.
type Proc struct {
	rank int
	n    int
	env  Env

	// Sim-only state.
	sim      *SimEnv
	next     func() (struct{}, bool) // Run's goroutine resumes the rank's coroutine
	yield    func(struct{}) bool     // the rank switches back to Run's goroutine
	done     bool
	parkNote string // what the rank is blocked on (deadlock reports)

	// Real-only state.
	real *RealEnv
}

// Rank returns this process's rank in [0, N).
func (p *Proc) Rank() int { return p.rank }

// N returns the number of ranks in the run.
func (p *Proc) N() int { return p.n }

// Env returns the hosting engine.
func (p *Proc) Env() Env { return p.env }

// Now returns the current (virtual or wall) time.
func (p *Proc) Now() simtime.Time { return p.env.Now() }

// Sleep advances this rank by d. Under Sim the rank parks and virtual time
// moves; under Real it is a no-op (modeled costs do not apply to wall-clock
// runs — real costs are the code itself).
func (p *Proc) Sleep(d simtime.Duration) {
	if p.sim != nil {
		if d < 0 {
			d = 0
		}
		p.sim.scheduleWake(p, d)
		p.park("sleep")
		return
	}
	p.real.checkAbort()
}

// Compute charges d of modeled computation time. It is Sleep under Sim and a
// no-op under Real.
func (p *Proc) Compute(d simtime.Duration) { p.Sleep(d) }

// Work runs fn (always, for numerical correctness) and charges cost of
// modeled time under Sim.
func (p *Proc) Work(cost simtime.Duration, fn func()) {
	fn()
	p.Sleep(cost)
}

// Yield is one poll step: Poll with one nanosecond of virtual time (a
// busy-poll iteration) under Sim.
func (p *Proc) Yield() { p.Poll(1) }

// Poll is one poll step. Under Sim it advances virtual time by interval;
// under Real and Dist it ignores interval and takes the step a gate waiter
// takes before it parks (RealEnv.step). It never sleeps, so a poll loop
// costs a core for as long as it spins; a rank that wants to idle blocks
// on a gate instead (a request's Wait, a window's Flush). Use it inside
// loops that watch memory or non-blocking queues.
func (p *Proc) Poll(interval simtime.Duration) {
	if p.sim != nil {
		p.Sleep(interval)
		return
	}
	p.real.step()
}

// park blocks the rank until a wake event resumes it. The parking rank
// holds the baton, so it runs the event loop itself: a wake of this same
// rank returns without a switch, any other outcome records the next rank
// in handoff and yields to Run's goroutine, which resumes that rank. A
// park during an abort (a rank's deferred code while it unwinds) unwinds
// at once instead.
func (p *Proc) park(note string) {
	e := p.sim
	if e.aborting {
		panic(procAbort{})
	}
	p.parkNote = note
	if next := e.loop(); next != p {
		e.handoff = next
		p.yield(struct{}{})
	}
	if e.aborting {
		panic(procAbort{})
	}
}

// ---------------------------------------------------------------------------
// Sim engine
// ---------------------------------------------------------------------------

// SimEnv is the deterministic discrete-event engine. Create with NewSimEnv,
// then call Run exactly once.
type SimEnv struct {
	q       *simtime.Queue
	now     simtime.Time
	procs   []*Proc
	handoff *Proc // the rank Run's goroutine resumes next; nil ends the run

	// sched is the pluggable event-selection policy (see Scheduler). nil
	// and TimeOrdered both take the direct heap-pop fast path; any other
	// policy receives the full sorted ready set each step and may permute
	// event order to explore interleavings.
	sched     Scheduler
	ready     []*simtime.Event // reused Pick snapshot buffer
	steps     int              // events fired so far
	stepLimit int              // abort threshold; 0 = unlimited

	live     int
	aborting bool
	err      error
}

// NewSimEnv returns a fresh simulation engine.
func NewSimEnv() *SimEnv {
	return &SimEnv{q: simtime.NewQueue()}
}

// Mode implements Env.
func (e *SimEnv) Mode() Mode { return Sim }

// Now implements Env.
func (e *SimEnv) Now() simtime.Time { return e.now }

// Schedule implements Env. fn runs in kernel context and must not block.
func (e *SimEnv) Schedule(after simtime.Duration, prio int, fn func()) {
	e.q.Schedule(e.at(after), prio, fn)
}

// ScheduleFire is Schedule for a closure-free callback with a FIFO-lane
// tag: obj.Fire runs in kernel context, and events sharing a nonzero lane
// are ordering-constrained for exploring schedulers (see
// simtime.Event.Lane and Scheduler). Under the default policy the tag is
// inert.
func (e *SimEnv) ScheduleFire(after simtime.Duration, prio int, lane uint64, obj simtime.Firer) {
	e.q.ScheduleFire(e.at(after), prio, lane, obj)
}

// at is the virtual time after from now, a negative delay clamped to zero.
func (e *SimEnv) at(after simtime.Duration) simtime.Time {
	if after < 0 {
		after = 0
	}
	return e.now.Add(after)
}

// ScheduleLane schedules obj.Fire on env like Env.Schedule, tagging the
// event with a FIFO lane on the Sim engine (see SimEnv.ScheduleFire). The
// wall-clock engines — where true concurrency, not an event queue, orders
// execution — fall back to a plain Schedule.
func ScheduleLane(env Env, after simtime.Duration, prio int, lane uint64, obj simtime.Firer) {
	if se, ok := env.(*SimEnv); ok {
		se.ScheduleFire(after, prio, lane, obj)
		return
	}
	env.Schedule(after, prio, obj.Fire)
}

// NewGate implements Env.
func (e *SimEnv) NewGate(l sync.Locker) Gate {
	return &simGate{env: e, locker: l}
}

func (e *SimEnv) scheduleWake(p *Proc, after simtime.Duration) {
	e.q.ScheduleWake(e.now.Add(after), PrioWake, p.rank)
}

// Run spawns n ranks executing body and drives the simulation until all
// ranks finish, a rank panics, or the system deadlocks.
//
// Each rank is a coroutine, and Run's goroutine is their driver: it runs
// the event loop up to the first wake, resumes the woken rank, and then
// resumes whichever rank the last one to park or finish recorded in
// handoff (see park and exit), until none is recorded. So the event loop
// runs on whichever coroutine holds the baton. Every rank's coroutine has
// ended when Run returns.
//
// A rank body that calls runtime.Goexit (t.FailNow does) ends the run:
// the other ranks unwind as they do after a rank's panic, and then Run
// re-raises the Goexit on its own goroutine instead of returning. A
// t.FailNow inside a rank therefore stops a test that calls Run as if it
// had been called on the test's goroutine.
func (e *SimEnv) Run(n int, body func(p *Proc)) (err error) {
	if n <= 0 {
		return fmt.Errorf("exec: Run needs n > 0, got %d", n)
	}
	e.procs = make([]*Proc, n)
	e.live = n
	for i := 0; i < n; i++ {
		p := &Proc{rank: i, n: n, env: e, sim: e}
		e.procs[i] = p
		e.spawn(p, body)
		e.scheduleWake(p, 0)
	}
	// Deferred so that a Goexit re-raised by next unwinds the parked
	// ranks too.
	defer func() { err = e.shutdown() }()
	for p := e.loop(); p != nil; p = e.handoff {
		p.next()
	}
	return nil
}

// exit retires a rank whose body returned (returned), unwound with r, or
// called runtime.Goexit (neither), recording a panic as the run error and
// a Goexit as an abort. It then runs the event loop on the rank's behalf
// and records the next rank in handoff; the rank's coroutine then ends.
func (e *SimEnv) exit(p *Proc, r any, returned bool) {
	switch {
	case r == nil && !returned:
		e.aborting = true
	case r != nil:
		if _, isAbort := r.(procAbort); !isAbort && e.err == nil {
			e.err = PanicError(fmt.Sprintf("rank %d panicked", p.rank), r, debug.Stack())
			e.aborting = true
		}
	}
	p.done = true
	e.live--
	e.handoff = e.loop()
}

// loop is the event loop, run by the goroutine holding the baton. It fires
// callbacks inline until an event wakes a live rank and returns that rank,
// or returns nil once the run is over: every rank done, deadlock (e.err is
// a *DeadlockError), or an abort by panic or scheduler (e.aborting).
func (e *SimEnv) loop() *Proc {
	for !e.aborting {
		ev := e.nextEvent()
		if ev == nil {
			if !e.aborting && e.live > 0 {
				e.err = e.deadlock()
			}
			return nil
		}
		// Monotone clock: under the default policy ev.At >= now always
		// holds; an exploring policy may fire a later-stamped event first,
		// after which earlier-stamped ones run "late" at the clamped now.
		if ev.At > e.now {
			e.now = ev.At
		}
		e.steps++
		id := ev.WakeID()
		if id < 0 {
			e.runEvent(ev)
		}
		e.q.Release(ev)
		if id >= 0 && !e.procs[id].done {
			return e.procs[id]
		}
	}
	return nil
}

// deadlock describes the ranks still parked when no event is left.
func (e *SimEnv) deadlock() error {
	var parked []string
	for _, p := range e.procs {
		if !p.done {
			parked = append(parked, fmt.Sprintf("rank %d (%s)", p.rank, p.parkNote))
		}
	}
	sort.Strings(parked)
	return &DeadlockError{Parked: parked}
}

// runEvent executes an event callback, converting panics (e.g. a bad remote
// access detected at delivery time) into a run abort.
func (e *SimEnv) runEvent(ev *simtime.Event) {
	defer func() {
		if r := recover(); r != nil {
			if e.err == nil {
				e.err = PanicError(fmt.Sprintf("event panicked at %v", e.now), r, debug.Stack())
			}
			e.aborting = true
		}
	}()
	if ev.Obj != nil {
		ev.Obj.Fire()
	} else {
		ev.Fn()
	}
}

// shutdown runs on Run's goroutine once no rank is left to resume: it
// resumes every rank still parked (or never started) once, so each unwinds
// with procAbort and its coroutine ends. Each unwound rank's exit finds
// the run aborting and returns at once.
func (e *SimEnv) shutdown() error {
	e.aborting = true
	for _, p := range e.procs {
		if !p.done {
			p.next()
		}
	}
	return e.err
}

type simGate struct {
	env     *SimEnv
	locker  sync.Locker
	waiters []*Proc
}

func (g *simGate) Wait(p *Proc) {
	g.waiters = append(g.waiters, p)
	g.locker.Unlock()
	defer relockOnUnwind(g.locker)
	p.park("gate")
	g.locker.Lock()
}

// PanicError converts a recovered panic value into a run error. An
// error-typed panic value is wrapped with %w so errors.Is/As see through
// the panic-to-run-error conversion — peer-failure errors raised out of
// blocked waits travel this path and must stay matchable by the caller.
func PanicError(prefix string, r any, stack []byte) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("%s: %w\n%s", prefix, err, stack)
	}
	return fmt.Errorf("%s: %v\n%s", prefix, r, stack)
}

// relockOnUnwind balances the locker when a gate wait unwinds with
// procAbort: callers' deferred Unlocks expect the lock held. A blocking
// Lock could hang on a mutex left held by another unwinding rank, so try
// non-blocking first; if some dead rank holds it, the caller's Unlock
// releases that hold instead — either way the system stays balanced.
func relockOnUnwind(l sync.Locker) {
	r := recover()
	if r == nil {
		return
	}
	if m, ok := l.(interface{ TryLock() bool }); ok {
		m.TryLock()
	} else {
		l.Lock()
	}
	panic(r)
}

func (g *simGate) Broadcast() {
	if len(g.waiters) == 0 {
		return
	}
	for _, p := range g.waiters {
		g.env.scheduleWake(p, 0)
	}
	g.waiters = g.waiters[:0]
}

// ---------------------------------------------------------------------------
// Real engine
// ---------------------------------------------------------------------------

// RealEnv runs ranks as plain goroutines under the wall clock.
type RealEnv struct {
	start     time.Time
	abort     chan struct{}
	abortOnce sync.Once
	errMu     sync.Mutex
	err       error

	progress Progressor // see SetProgress; nil when no link installed one
}

// Progressor is a link's progress engine as the wall-clock engines drive
// it (SetProgress): the shm mesh consumes its segment rings, the TCP mesh
// runs a poll round over its streams.
type Progressor interface {
	// Progress consumes inbound traffic on the calling goroutine
	// (delivering it, so a gate may be broadcast before it returns), never
	// blocks, and reports whether it found anything.
	Progress() bool
	// BeginDrive and EndDrive bracket a gate waiter's tries: for that
	// long the link may leave its inbound traffic to the waiter alone.
	// found reports whether the gate was broadcast, so the waiter returns;
	// otherwise its tries ran out and it parks until a delivery made
	// elsewhere wakes it.
	BeginDrive()
	EndDrive(found bool)
}

// waiterTries bounds how many poll steps a gate waiter takes, when a
// progress function is installed, before it parks on the gate's channel.
// Chosen from the sweep in EXPERIMENTS.md, "Waiters drive the rings": the
// smallest budget that covers a 20 µs wait on the segment rings; 1000
// tries cost 40 % more CPU than none on waits of 500 µs. On shm the tries
// are one drive (Progressor.BeginDrive/EndDrive): the link's poller steps
// aside for it, and a waiter whose tries run out resumes the poller before
// it parks (EXPERIMENTS.md, "The shm poller sleeps on a futex doorbell").
const waiterTries = 50

// NewRealEnv returns a fresh wall-clock engine.
func NewRealEnv() *RealEnv {
	return &RealEnv{start: time.Now(), abort: make(chan struct{})}
}

// Mode implements Env.
func (e *RealEnv) Mode() Mode { return Real }

// Now implements Env: wall nanoseconds since engine creation.
func (e *RealEnv) Now() simtime.Time { return simtime.Time(time.Since(e.start)) }

// Schedule implements Env: fn runs on its own goroutine after the delay
// (which is honored in wall time), unless the run aborts first.
func (e *RealEnv) Schedule(after simtime.Duration, prio int, fn func()) {
	go func() {
		if after > 0 {
			t := time.NewTimer(time.Duration(after))
			defer t.Stop()
			select {
			case <-t.C:
			case <-e.abort:
				return
			}
		}
		fn()
	}()
}

// NewGate implements Env.
func (e *RealEnv) NewGate(l sync.Locker) Gate {
	return &realGate{env: e, locker: l}
}

// SetProgress installs the link's progress engine. Every poll step runs
// its Progress once — each Yield and Poll, and each of a gate waiter's
// tries before it parks — so a polling or blocked rank takes its own
// notifications instead of waiting for a poller goroutine to commit them
// and wake it. A gate waiter's tries are bracketed by BeginDrive and
// EndDrive; Yield and Poll steps are not. Call before Run.
func (e *RealEnv) SetProgress(p Progressor) { e.progress = p }

func (e *RealEnv) setErr(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
	e.abortOnce.Do(func() { close(e.abort) })
}

func (e *RealEnv) checkAbort() {
	select {
	case <-e.abort:
		panic(procAbort{})
	default:
	}
}

// step is one poll step, shared by Yield, Poll and a gate waiter's tries:
// unwind if the run was aborted, run the progress function once if one is
// installed, and yield the processor if that found nothing, so the peer
// (or the delivery the caller waits for) can run. It never sleeps.
func (e *RealEnv) step() {
	e.checkAbort()
	if e.progress == nil || !e.progress.Progress() {
		goruntime.Gosched()
	}
}

// Aborted returns a channel closed when the run is aborted. Helper
// goroutines (e.g. active-message workers) should select on it.
func (e *RealEnv) Aborted() <-chan struct{} { return e.abort }

// IsAbortPanic reports whether a recovered panic value is the engine's
// internal abort sentinel, letting helper goroutines distinguish a benign
// abort unwind from a genuine failure.
func IsAbortPanic(r any) bool {
	_, ok := r.(procAbort)
	return ok
}

// Fail aborts the run with err, waking all parked ranks. It surfaces
// failures that must not unwind the goroutine they happen on (e.g. a
// delivery-time panic, caught on the sender's or link reader's goroutine).
func (e *RealEnv) Fail(err error) { e.setErr(err) }

// Run spawns n ranks executing body and waits for all of them.
func (e *RealEnv) Run(n int, body func(p *Proc)) error {
	if n <= 0 {
		return fmt.Errorf("exec: Run needs n > 0, got %d", n)
	}
	procs := make([]*Proc, n)
	for i := range procs {
		procs[i] = &Proc{rank: i, n: n, env: e, real: e}
	}
	return e.runProcs(procs, body)
}

// runProcs runs body on every proc, each on its own goroutine, waits for
// all of them and returns the run error. A rank's panic becomes that error
// (an abort unwind is the error's consequence, not a cause).
func (e *RealEnv) runProcs(procs []*Proc, body func(p *Proc)) error {
	var wg sync.WaitGroup
	for _, p := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, isAbort := r.(procAbort); !isAbort {
						e.setErr(PanicError(fmt.Sprintf("rank %d panicked", p.rank), r, debug.Stack()))
					}
				}
			}()
			body(p)
		}()
	}
	wg.Wait()
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.err
}

// realGate parks goroutines on a lazily-created channel: the first waiter
// since the last broadcast allocates it, and a broadcast with nobody
// parked is a mutex round trip and nothing else. Hot delivery paths
// broadcast once per packet, so an eager channel-per-broadcast would put
// an allocation on every operation of a steady-state data stream.
type realGate struct {
	env    *RealEnv
	locker sync.Locker
	mu     sync.Mutex
	ch     chan struct{} // nil when no waiter is registered
}

func (g *realGate) Wait(p *Proc) {
	g.mu.Lock()
	if g.ch == nil {
		g.ch = make(chan struct{})
	}
	ch := g.ch
	g.mu.Unlock()
	g.locker.Unlock()
	if g.env.progress != nil && g.drive(ch) {
		g.locker.Lock()
		return
	}
	select {
	case <-ch:
		g.locker.Lock()
	case <-g.env.abort:
		// Same balance-without-blocking rule as the Sim gate.
		if m, ok := g.locker.(interface{ TryLock() bool }); ok {
			m.TryLock()
		} else {
			g.locker.Lock()
		}
		panic(procAbort{})
	}
}

// drive takes at most waiterTries poll steps on the waiting goroutine,
// bracketed by the progress engine's BeginDrive and EndDrive, and reports
// whether the gate was broadcast meanwhile. The locker is released while
// drive runs; an abort, or a panic out of the progress function, ends the
// drive as given up and retakes the locker as it unwinds.
func (g *realGate) drive(ch chan struct{}) (found bool) {
	defer relockOnUnwind(g.locker)
	pr := g.env.progress
	pr.BeginDrive()
	defer func() { pr.EndDrive(found) }()
	for range waiterTries {
		select {
		case <-ch:
			return true
		default:
		}
		g.env.step()
	}
	return false
}

func (g *realGate) Broadcast() {
	g.mu.Lock()
	if g.ch != nil {
		close(g.ch)
		g.ch = nil
	}
	g.mu.Unlock()
}

// realEnv lets wrappers that embed *RealEnv (DistEnv) be unwrapped without
// the caller knowing the concrete type. See RealOf.
func (e *RealEnv) realEnv() *RealEnv { return e }

// RealOf returns the wall-clock engine backing env, or nil when env is the
// Sim engine. It sees through DistEnv, which embeds a RealEnv; code that
// needs the abort channel or Fail uses this instead of a concrete type
// assertion.
func RealOf(env Env) *RealEnv {
	if re, ok := env.(interface{ realEnv() *RealEnv }); ok {
		return re.realEnv()
	}
	return nil
}

// ---------------------------------------------------------------------------
// Dist engine
// ---------------------------------------------------------------------------

// DistEnv hosts exactly one rank of an n-rank job in this OS process. It is
// the Real engine in every respect — wall clock, channel gates, abort
// fan-out — except that Run(n, body) spawns only the local rank: the other
// n-1 ranks are peer processes, and the fabric routes traffic to them over
// a network link instead of an in-memory NIC.
type DistEnv struct {
	*RealEnv
	self int
	n    int
}

// NewDistEnv returns a wall-clock engine hosting rank self of an n-rank
// distributed run.
func NewDistEnv(self, n int) *DistEnv {
	if self < 0 || self >= n {
		panic(fmt.Sprintf("exec: NewDistEnv rank %d out of range [0,%d)", self, n))
	}
	return &DistEnv{RealEnv: NewRealEnv(), self: self, n: n}
}

// Mode implements Env.
func (e *DistEnv) Mode() Mode { return Dist }

// Self returns the local rank.
func (e *DistEnv) Self() int { return e.self }

// Run spawns the local rank only. n must match the job size given at
// construction; the Proc it passes to body reports the global rank and
// global N, so rank-aware library code works unchanged.
func (e *DistEnv) Run(n int, body func(p *Proc)) error {
	if n != e.n {
		return fmt.Errorf("exec: DistEnv built for %d ranks, Run called with %d", e.n, n)
	}
	return e.runProcs([]*Proc{{rank: e.self, n: e.n, env: e, real: e.RealEnv}}, body)
}

// New returns an engine for the requested mode.
func New(m Mode) interface {
	Env
	Run(n int, body func(p *Proc)) error
} {
	switch m {
	case Sim:
		return NewSimEnv()
	case Real:
		return NewRealEnv()
	}
	panic("exec: New(Dist) is ambiguous — use NewDistEnv(self, n)")
}
