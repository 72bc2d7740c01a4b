// Package fault is the rank-failure plane: a Plan names ranks that crash
// (fail-stop) or hang, from the start or after a number of sends, and the
// fabric consults one Injector per transmitted packet to learn whether the
// packet leaves its origin and reaches its target. The fabric itself is
// lossless — in-process memory, a TCP stream, an SPSC segment ring — so a
// packet is only ever absorbed by a failed rank, never by the wire.
//
// Under the deterministic Sim engine the same plan fails the same ranks at
// the same sends on every run.
package fault

import (
	"sort"
	"sync"
)

// RankMode classifies a rank-level failure.
type RankMode int

const (
	// Crash fail-stops the rank: nothing it sends leaves, nothing sent to
	// it arrives (the NIC is gone in both directions).
	Crash RankMode = iota
	// Hang freezes the rank's sends only: packets *to* a hung rank still
	// arrive (its NIC accepts them) but nothing comes back — the failure
	// mode that distinguishes a dead process from a dead link.
	Hang
)

func (m RankMode) String() string {
	if m == Crash {
		return "crash"
	}
	return "hang"
}

// RankFault schedules a rank-level failure.
type RankFault struct {
	Rank int
	Mode RankMode
	// AfterSends lets the rank originate this many packets before the
	// failure takes effect; 0 fails it from the start.
	AfterSends int
}

// Plan is a reproducible failure scenario.
type Plan struct {
	// Ranks are scheduled rank-level failures.
	Ranks []RankFault
}

// Injector evaluates a Plan. One Injector serves a whole fabric; it is
// safe for concurrent use from every sending goroutine.
type Injector struct {
	plan Plan

	mu       sync.Mutex
	sends    map[int]uint64 // per-origin originated-packet counter
	down     map[int]RankMode
	downHook func(rank int, mode RankMode)
}

// NewInjector compiles a plan. The plan is copied; later mutations of the
// caller's value have no effect.
func NewInjector(p Plan) *Injector {
	in := &Injector{
		plan:  Plan{Ranks: append([]RankFault(nil), p.Ranks...)},
		sends: make(map[int]uint64),
		down:  make(map[int]RankMode),
	}
	for _, rf := range p.Ranks {
		if rf.AfterSends == 0 {
			in.down[rf.Rank] = rf.Mode
		}
	}
	return in
}

// SetDownHook registers fn to be called (outside the injector lock) every
// time a rank transitions into a failure mode — scheduled AfterSends
// activation in Admit, or an explicit Crash/Hang call. Ranks already down
// when the hook is installed are reported immediately, in rank order, so a
// hook that schedules Sim events assigns them the same sequence numbers on
// every run, and transports that mirror rank failure into their own
// liveness machinery (e.g. the shmfab heartbeat word) never miss a
// transition that happened during plan compilation.
func (in *Injector) SetDownHook(fn func(rank int, mode RankMode)) {
	in.mu.Lock()
	in.downHook = fn
	ranks := make([]int, 0, len(in.down))
	for r := range in.down {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	modes := make([]RankMode, len(ranks))
	for i, r := range ranks {
		modes[i] = in.down[r]
	}
	in.mu.Unlock()
	if fn != nil {
		for i, r := range ranks {
			fn(r, modes[i])
		}
	}
}

// Crash fail-stops a rank immediately (both directions go dark). Tests use
// it to kill a rank mid-run.
func (in *Injector) Crash(rank int) {
	in.mu.Lock()
	in.down[rank] = Crash
	hook := in.downHook
	in.mu.Unlock()
	if hook != nil {
		hook(rank, Crash)
	}
}

// Hang freezes a rank's sends immediately (inbound still arrives).
func (in *Injector) Hang(rank int) {
	in.mu.Lock()
	var hook func(int, RankMode)
	if _, already := in.down[rank]; !already {
		in.down[rank] = Hang
		hook = in.downHook
	}
	in.mu.Unlock()
	if hook != nil {
		hook(rank, Hang)
	}
}

// Down reports whether rank has a scheduled-and-active failure, and its
// mode.
func (in *Injector) Down(rank int) (RankMode, bool) {
	in.mu.Lock()
	m, ok := in.down[rank]
	in.mu.Unlock()
	return m, ok
}

// Admit counts one packet originated by origin and reports whether it
// leaves origin and reaches target: false once origin is down (crashed or
// hung), or when target has crashed. The count activates AfterSends
// failures: origin's (AfterSends+1)th packet is its first absorbed one.
func (in *Injector) Admit(origin, target int) bool {
	in.mu.Lock()
	count := in.sends[origin] + 1
	in.sends[origin] = count
	var hook func(int, RankMode)
	var mode RankMode
	if _, already := in.down[origin]; !already {
		for _, rf := range in.plan.Ranks {
			if rf.Rank == origin && rf.AfterSends > 0 && count > uint64(rf.AfterSends) {
				in.down[origin] = rf.Mode
				hook, mode = in.downHook, rf.Mode
				break
			}
		}
	}
	_, originDown := in.down[origin]
	targetMode, targetDown := in.down[target]
	in.mu.Unlock()
	if hook != nil {
		hook(origin, mode)
	}
	return !originDown && !(targetDown && targetMode == Crash)
}
