// Package core implements Notified Access, the paper's contribution: RMA
// put/get operations that carry a <source, tag> notification matched at the
// target through persistent requests — the foMPI-NA interface
// (MPI_Put_notify / MPI_Get_notify / MPI_Notify_init / MPI_Start /
// MPI_Test / MPI_Wait) rebuilt in Go on the simulated fabric.
//
// Implementation follows the paper §IV-B, with the target-side matching
// done by a per-window dispatch engine instead of a scanned queue:
//
//   - The origin attaches a 4-byte immediate to the RDMA operation; source
//     rank and tag are encoded in its two half-words. The data movement is
//     entirely "hardware" (fabric); only the lightweight notification is
//     processed in software at the target.
//   - Each window's region carries a notification sink, its matcher, to
//     which the NIC hands every notification at delivery time. The matcher keeps a hash table of armed persistent
//     requests keyed by <source, tag> plus ordered wildcard lists
//     (AnySource / AnyTag / both), so an arriving notification finds the
//     earliest-armed matching request in O(1) — there is no shared queue
//     to drain and no cross-window interference.
//   - Notifications with no armed match land in a bucketed unexpected
//     store: one hash bucket per <source, tag> plus per-source, per-tag,
//     and global arrival-order FIFOs over shared nodes. A newly Started
//     request consumes its backlog from the one FIFO matching its wildcard
//     class — oldest first, without scanning unrelated notifications.
//     Together with delivery-time crediting this preserves the paper's
//     arrival-order matching semantics: a request is only credited fresh
//     notifications once its stored backlog is exhausted.
//   - Requests are persistent: Notify_init allocates (the 32-byte structure
//     of the paper), Start re-arms (resetting the matched counter and
//     draining backlog), Test and Wait charge the modeled receive/match
//     overheads for credits accumulated since the last call, Free releases.
//     A request completes after ExpectedCount matching notifications; its
//     Status reports the last match.
//   - AnySource / AnyTag wildcards match in arrival order; counting
//     requests (ExpectedCount > 1) implement the bulk-notification
//     optimization used by the tree reduction.
package core

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/match"
	"repro/internal/rma"
)

// Wildcards for notification matching.
const (
	// AnySource matches notifications from every origin.
	AnySource = -1
	// AnyTag matches every tag.
	AnyTag = -1
)

// MaxTag is the largest encodable tag: the immediate carries the tag in its
// low 16 bits (the hardware constraint the paper notes for uGNI's 4-byte
// values).
const MaxTag = 1<<16 - 1

// MaxSource is the largest encodable source rank: the immediate carries the
// source in its high 16 bits.
const MaxSource = 1<<16 - 1

// EncodeImm packs source rank and tag into the 4-byte immediate ("we encode
// the source rank and tag into the first and last two bytes"). It panics if
// source is outside [0, MaxSource] or tag is outside [0, MaxTag].
func EncodeImm(source, tag int) uint32 {
	if source < 0 || source > MaxSource {
		panic(fmt.Sprintf("core: source %d out of range [0,%d]", source, MaxSource))
	}
	if tag < 0 || tag > MaxTag {
		panic(fmt.Sprintf("core: tag %d out of range [0,%d]", tag, MaxTag))
	}
	return uint32(source)<<16 | uint32(tag)
}

// DecodeImm unpacks an immediate into source rank and tag.
func DecodeImm(imm uint32) (source, tag int) {
	return int(imm >> 16), int(imm & 0xffff)
}

// Status reports the last matching notified access of a completed request.
type Status struct {
	Source int
	Tag    int
}

// Request is a persistent notification request (the paper's 32-byte
// structure: window, rank, tag, type, count, matched).
type Request struct {
	state  *naState
	win    *rma.Win
	source int
	tag    int
	count  int

	// active and freed are owner-rank lifecycle flags: active is set by
	// Start and cleared when Test/Wait observes completion (or by Free).
	active bool
	freed  bool

	// The fields below are guarded by state.mu: the matcher credits armed
	// requests at delivery time, which under the Real engine happens on the
	// NIC receive goroutine.
	matched   int // matching notifications consumed since the last Start
	uncharged int // credits whose modeled overhead Test/Wait has not yet charged
	last      Status
	posted    bool                         // linked in the matcher's armed-request index
	entry     *match.PostedEntry[*Request] // live index entry handle
}

// NotifyInit allocates a persistent notification request bound to win,
// matching (source, tag) — wildcards allowed — and completing after
// expectedCount matching notified accesses (MPI_Notify_init). The request
// must be armed with Start before each use and released with Free.
func NotifyInit(win *rma.Win, source, tag, expectedCount int) *Request {
	p := win.Proc()
	if expectedCount <= 0 {
		panic(fmt.Sprintf("core: rank %d: expectedCount must be positive, got %d", p.Rank(), expectedCount))
	}
	if tag != AnyTag && (tag < 0 || tag > MaxTag) {
		panic(fmt.Sprintf("core: rank %d: tag %d out of range", p.Rank(), tag))
	}
	if source != AnySource && (source < 0 || source >= p.N()) {
		panic(fmt.Sprintf("core: rank %d: source %d out of range", p.Rank(), source))
	}
	p.Sleep(p.Model().TInit)
	return &Request{state: state(p), win: win, source: source, tag: tag, count: expectedCount}
}

// Start arms the request for a new round of matching (MPI_Start): it
// resets the matched counter, consumes any matching backlog from the
// window's unexpected store (oldest first), and — if still incomplete —
// posts the request in the matcher's index so arriving notifications are
// credited to it at delivery time.
func (r *Request) Start() {
	if r.freed {
		panic("core: Start on freed request")
	}
	if r.active {
		panic("core: Start on active request")
	}
	p := r.win.Proc()
	p.Sleep(p.Model().TStart)
	r.active = true
	s := r.state
	s.mu.Lock()
	r.matched = 0
	r.uncharged = 0
	m := s.matcherLocked(r.win.UserRegionID())
	for r.matched < r.count {
		_, src, tag, ok := m.store.Pop(r.source, r.tag)
		if !ok {
			break
		}
		m.backlogMatched++
		r.matched++
		r.uncharged++
		r.last = Status{Source: src, Tag: tag}
	}
	if r.matched < r.count {
		s.postLocked(m, r)
	}
	s.mu.Unlock()
}

// Test advances matching without blocking (MPI_Test): it charges the
// modeled receive + match overhead for every notification credited since
// the last call and reports whether the request completed. On completion
// the request de-activates and Status returns the last matching access.
func (r *Request) Test() bool {
	if r.freed {
		panic("core: Test on freed request")
	}
	if !r.active {
		// Completed (or never started): MPI_Test on an inactive request
		// returns true with an empty status.
		return true
	}
	s := r.state
	s.mu.Lock()
	credits := r.uncharged
	r.uncharged = 0
	done := r.matched >= r.count
	s.mu.Unlock()
	if credits > 0 {
		p := r.win.Proc()
		m := p.Model()
		for i := 0; i < credits; i++ {
			p.Sleep(m.ORecv)
			p.Sleep(m.TMatchScan)
		}
	}
	if done {
		r.active = false
	}
	return done
}

// Wait blocks until the request completes and returns the status of the
// last matching notified access (MPI_Wait).
func (r *Request) Wait() Status {
	p := r.win.Proc()
	s := r.state
	for !r.Test() {
		s.mu.Lock()
		for r.uncharged == 0 && r.matched < r.count && s.failed == nil {
			s.gate.Wait(p.Proc)
		}
		err := s.failed
		stalled := r.uncharged == 0 && r.matched < r.count
		s.mu.Unlock()
		if err != nil && stalled {
			// A peer died and this request has no further progress to
			// consume: the awaited notification may never come.
			panic(err)
		}
	}
	return r.Status()
}

// Status returns the last matching access of the most recent completion.
func (r *Request) Status() Status {
	s := r.state
	s.mu.Lock()
	defer s.mu.Unlock()
	return r.last
}

// Matched returns the current matched count (diagnostics).
func (r *Request) Matched() int {
	s := r.state
	s.mu.Lock()
	defer s.mu.Unlock()
	return r.matched
}

// Free releases the persistent request (MPI_Request_free). An armed
// request is unposted from the matcher first.
func (r *Request) Free() {
	if r.freed {
		panic("core: double Free")
	}
	p := r.win.Proc()
	p.Sleep(p.Model().TFree)
	s := r.state
	s.mu.Lock()
	if r.posted {
		if m := s.wins[r.win.UserRegionID()]; m != nil {
			s.unpostLocked(m, r)
		} else {
			r.posted = false
		}
	}
	s.mu.Unlock()
	r.active = false
	r.freed = true
}

// PutNotify writes data into target's window at targetOff and delivers a
// <source, tag> notification with it (MPI_Put_notify). A single network
// transaction carries both. Zero-byte payloads send the notification only.
// The returned handle completes at remote commitment (for flush-style
// reuse of the origin buffer).
func PutNotify(win *rma.Win, target, targetOff int, data []byte, tag int) *fabric.Op {
	p := win.Proc()
	imm := fabric.WithImm(EncodeImm(p.Rank(), tag))
	return win.NIC().Put(p.Proc, target, win.UserRegionID(), targetOff, data, imm)
}

// GetNotify reads len(dst) bytes from target's window at targetOff into
// dst and notifies the *target* that its buffer has been read and may be
// reused (MPI_Get_notify) — the consumer-managed-buffering primitive of
// paper §VI-B. The returned handle completes when the data lands at the
// origin.
func GetNotify(win *rma.Win, target, targetOff int, dst []byte, tag int) *fabric.Op {
	p := win.Proc()
	imm := fabric.WithImm(EncodeImm(p.Rank(), tag))
	return win.NIC().Get(p.Proc, target, win.UserRegionID(), targetOff, dst, imm)
}

// AccumulateNotify applies an element-wise float64 reduction into target's
// window with a notification (the notified-accumulate extension the paper
// lists for MPI's accumulate family).
func AccumulateNotify(win *rma.Win, target, targetOff int, vals []float64, op fabric.AccumOp, tag int) *fabric.Op {
	p := win.Proc()
	imm := fabric.WithImm(EncodeImm(p.Rank(), tag))
	return win.NIC().Accumulate(p.Proc, target, win.UserRegionID(), targetOff, vals, op, imm)
}

// PendingNotifications returns the depth of win's unexpected store at this
// rank (diagnostics for the matching-cost benches).
func PendingNotifications(win *rma.Win) int {
	s := state(win.Proc())
	s.mu.Lock()
	defer s.mu.Unlock()
	if m := s.wins[win.UserRegionID()]; m != nil {
		return m.store.Depth()
	}
	return 0
}

// Iprobe reports whether a notification matching (source, tag) is
// available on win without consuming it, returning its envelope — the
// probe semantics the paper notes "can be added trivially". Notifications
// already claimed by an armed request are not probeable.
func Iprobe(win *rma.Win, source, tag int) (Status, bool) {
	s := state(win.Proc())
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.matcherLocked(win.UserRegionID())
	if nd := m.store.Peek(source, tag); nd != nil {
		return Status{Source: nd.Source, Tag: nd.Tag}, true
	}
	return Status{}, false
}

// Probe blocks until a notification matching (source, tag) is available on
// win without consuming it.
func Probe(win *rma.Win, source, tag int) Status {
	p := win.Proc()
	s := state(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		m := s.matcherLocked(win.UserRegionID())
		if nd := m.store.Peek(source, tag); nd != nil {
			return Status{Source: nd.Source, Tag: nd.Tag}
		}
		if s.failed != nil {
			panic(s.failed) // deferred unlock above releases s.mu
		}
		s.gate.Wait(p.Proc)
	}
}

// WaitAll blocks until every request completes (MPI_Waitall). Requests may
// live on different windows of the same rank.
func WaitAll(reqs ...*Request) {
	for _, r := range reqs {
		r.Wait()
	}
}

// TestAll advances matching and reports whether every request is complete
// (MPI_Testall).
func TestAll(reqs ...*Request) bool {
	all := true
	for _, r := range reqs {
		if !r.Test() {
			all = false
		}
	}
	return all
}

// WaitAny blocks until at least one of the requests completes and returns
// its index (MPI_Waitany). All requests must belong to the same rank.
func WaitAny(reqs ...*Request) int {
	if len(reqs) == 0 {
		panic("core: WaitAny with no requests")
	}
	p := reqs[0].win.Proc()
	s := reqs[0].state
	for {
		for i, r := range reqs {
			if r.Test() {
				return i
			}
		}
		s.mu.Lock()
		for !anyReadyLocked(reqs) && s.failed == nil {
			s.gate.Wait(p.Proc)
		}
		err := s.failed
		ready := anyReadyLocked(reqs)
		s.mu.Unlock()
		if err != nil && !ready {
			panic(err)
		}
	}
}

// anyReadyLocked reports whether some request has progress for Test to
// observe. Callers hold the state mutex.
func anyReadyLocked(reqs []*Request) bool {
	for _, r := range reqs {
		if !r.active || r.uncharged > 0 || r.matched >= r.count {
			return true
		}
	}
	return false
}

// TestAny advances matching and returns the index of a completed request,
// or -1 if none completed (MPI_Testany).
func TestAny(reqs ...*Request) int {
	for i, r := range reqs {
		if r.Test() {
			return i
		}
	}
	return -1
}
