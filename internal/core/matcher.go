package core

import (
	"sync"

	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/match"
	"repro/internal/rma"
	"repro/internal/runtime"
)

// MatchStats is a snapshot of one window matcher's counters.
type MatchStats struct {
	// Depth is the current unexpected-store depth (unconsumed notifications).
	Depth int
	// HighWater is the maximum store depth observed.
	HighWater int
	// PostedDepth is the number of currently armed (incomplete) requests.
	PostedDepth int
	// PostedHighWater is the maximum armed-request count observed.
	PostedHighWater int
	// Ingested counts all notifications dispatched to this window.
	Ingested uint64
	// DirectMatched counts notifications credited to an armed request at
	// delivery time (never stored).
	DirectMatched uint64
	// BacklogMatched counts notifications consumed from the store when a
	// request armed.
	BacklogMatched uint64
}

// winMatcher is one window's matching engine: a hash-bucketed index of
// armed persistent requests plus a hash-bucketed unexpected store, both
// with ordered wildcard views so arrival-order semantics survive O(1)
// dispatch. The containers live in internal/match and are shared with the
// message-passing tag matcher; a stored notification carries no payload
// beyond its envelope, hence the empty-struct item type.
type winMatcher struct {
	regionID int

	posted match.Posted[*Request]
	store  match.Store[struct{}]

	ingested       uint64
	directMatched  uint64
	backlogMatched uint64
}

// statsLocked assembles the public counter snapshot.
func (m *winMatcher) statsLocked() MatchStats {
	return MatchStats{
		Depth:           m.store.Depth(),
		HighWater:       m.store.HighWater(),
		PostedDepth:     m.posted.Depth(),
		PostedHighWater: m.posted.HighWater(),
		Ingested:        m.ingested,
		DirectMatched:   m.directMatched,
		BacklogMatched:  m.backlogMatched,
	}
}

// naState is the per-rank Notified Access engine. It observes window
// lifecycle events to install per-window notification sinks on the NIC,
// and owns one matcher per live window. mu guards every matcher and all
// request matching fields; gate wakes parked Wait/Probe callers when a
// notification is ingested. Lock order: mu before the NIC lock (sink
// installation); the NIC never calls Deliver while holding its own lock.
type naState struct {
	p      *runtime.Proc
	mu     sync.Mutex
	gate   exec.Gate
	wins   map[int]*winMatcher
	am     *amEngine // active-message dispatch engine; nil until first RegisterHandler
	failed error     // first peer failure observed; wakes and fails parked waits
}

type naKey struct{}

func state(p *runtime.Proc) *naState {
	return p.Attach(naKey{}, func() any {
		s := &naState{p: p, wins: map[int]*winMatcher{}}
		s.gate = p.Env().NewGate(&s.mu)
		p.AddWindowObserver(s)
		// A declared peer failure must wake parked Wait/Probe callers: the
		// notification they are waiting for may never arrive (job-fatal
		// unblocking policy; the error unwraps to fabric.ErrPeerFailed).
		p.OnPeerFailure(func(failed int, err error) {
			s.mu.Lock()
			if s.failed == nil {
				s.failed = err
			}
			s.mu.Unlock()
			s.gate.Broadcast()
		})
		return s
	}).(*naState)
}

// matcherLocked returns the matcher for a region, creating it on demand.
// Callers hold s.mu.
func (s *naState) matcherLocked(regionID int) *winMatcher {
	m := s.wins[regionID]
	if m == nil {
		m = &winMatcher{regionID: regionID}
		s.wins[regionID] = m
	}
	return m
}

// WindowCreated implements runtime.WindowObserver: it takes ownership of
// the window's notification delivery by installing itself as the region's
// sink, and ingests, under s.mu, the notifications that waited on the
// region before the handover, so no later Deliver overtakes them.
func (s *naState) WindowCreated(userRegionID int) {
	s.mu.Lock()
	s.matcherLocked(userRegionID)
	backlog := s.p.NIC().InstallNotifySink(userRegionID, s)
	for _, cqe := range backlog {
		s.ingestLocked(cqe)
	}
	s.mu.Unlock()
	if len(backlog) > 0 {
		s.gate.Broadcast()
	}
}

// WindowFreed implements runtime.WindowObserver. Freeing a window also
// retires its AM handlers and discards their queued dispatches; if that
// empties the registry the worker pool is shut down.
func (s *naState) WindowFreed(userRegionID int) {
	s.p.NIC().RemoveNotifySink(userRegionID)
	s.mu.Lock()
	delete(s.wins, userRegionID)
	stop := s.amFreeWindowLocked(userRegionID)
	s.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	s.gate.Broadcast()
}

// Deliver implements fabric.NotifySink: the NIC hands over one destination
// CQE at delivery time. Under Sim this runs in kernel context at the
// packet's arrival time; under the wall-clock engines on the goroutine
// that sent the packet (in-process) or read its frame (link), which is
// why no layer may post to a NIC while holding s.mu. It must not block
// beyond the mutex.
func (s *naState) Deliver(cqe fabric.CQE) {
	s.mu.Lock()
	s.ingestLocked(cqe)
	s.mu.Unlock()
	s.gate.Broadcast()
}

// ingestLocked dispatches one notification: credit the earliest-armed
// matching request if any, else store it. Because arming drains the store
// first (see Request.Start), an armed incomplete request never has a
// matching notification sitting in the store — so crediting the armed
// request here cannot overtake an older stored match.
func (s *naState) ingestLocked(cqe fabric.CQE) {
	m := s.matcherLocked(cqe.RegionID)
	src, tag := DecodeImm(cqe.Imm)
	m.ingested++
	// Classes with a registered active-message handler are consumed by the
	// AM layer: the handler runs instead of crediting a waiter or storing
	// the notification.
	if s.amDispatchLocked(cqe, src, tag) {
		return
	}
	if e := m.posted.Match(src, tag); e != nil {
		m.directMatched++
		s.creditLocked(m, e.Item, src, tag)
		return
	}
	m.store.Add(src, tag, struct{}{})
}

// creditLocked applies one matching notification to an armed request and
// unposts it on completion. The modeled receive/match overhead is charged
// later, by the owner inside Test/Wait (uncharged tracks the debt).
func (s *naState) creditLocked(m *winMatcher, r *Request, src, tag int) {
	r.matched++
	r.uncharged++
	r.last = Status{Source: src, Tag: tag}
	if r.matched >= r.count {
		s.unpostLocked(m, r)
	}
}

// postLocked inserts an armed request into its wildcard-class list.
func (s *naState) postLocked(m *winMatcher, r *Request) {
	r.posted = true
	r.entry = m.posted.Add(r.source, r.tag, r)
}

// unpostLocked removes a request from the index (lazily: the dead entry
// is skipped when it surfaces at a list head).
func (s *naState) unpostLocked(m *winMatcher, r *Request) {
	r.posted = false
	if r.entry != nil {
		m.posted.Remove(r.entry)
		r.entry = nil
	}
}

// MatcherStats returns a snapshot of win's matcher counters at this rank
// (zero value if the window has no matcher yet or was freed).
func MatcherStats(win *rma.Win) MatchStats {
	s := state(win.Proc())
	s.mu.Lock()
	defer s.mu.Unlock()
	if m := s.wins[win.UserRegionID()]; m != nil {
		return m.statsLocked()
	}
	return MatchStats{}
}
