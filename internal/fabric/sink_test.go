package fabric

import (
	"sync"

	"repro/internal/exec"
)

// testSink is a gate-backed NotifySink, the raw-fabric tests' stand-in for
// the matcher: it queues one region's notifications in arrival order, and
// a waiter parks on its gate until one is queued or a peer failure is
// recorded against the sink.
type testSink struct {
	mu     sync.Mutex
	gate   exec.Gate
	q      []CQE
	failed error
}

// sinkOn installs a testSink on reg, starting with the notifications that
// arrived before it.
func sinkOn(reg *MemRegion) *testSink {
	s := &testSink{}
	s.gate = reg.nic.f.env.NewGate(&s.mu)
	s.mu.Lock()
	s.q = reg.nic.InstallNotifySink(reg.ID, s)
	s.mu.Unlock()
	return s
}

// Deliver implements NotifySink.
func (s *testSink) Deliver(cqe CQE) {
	s.mu.Lock()
	s.q = append(s.q, cqe)
	s.mu.Unlock()
	s.gate.Broadcast()
}

// wait parks p until a notification is queued and pops the oldest. With
// none queued and a failure recorded it panics with the failure instead,
// as the matcher's Wait does.
func (s *testSink) wait(p *exec.Proc) CQE {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.q) == 0 {
		if s.failed != nil {
			panic(s.failed)
		}
		s.gate.Wait(p)
	}
	cqe := s.q[0]
	s.q = s.q[1:]
	return cqe
}

// poll pops the oldest queued notification, if any.
func (s *testSink) poll() (CQE, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.q) == 0 {
		return CQE{}, false
	}
	cqe := s.q[0]
	s.q = s.q[1:]
	return cqe, true
}

// fail records a peer failure and wakes the waiter: the matcher's
// peer-failure listener in miniature, called from Config.FailureHook.
func (s *testSink) fail(err error) {
	s.mu.Lock()
	if s.failed == nil {
		s.failed = err
	}
	s.mu.Unlock()
	s.gate.Broadcast()
}
