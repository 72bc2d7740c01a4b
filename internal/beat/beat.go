// Package beat is the stall detector the cross-process meshes share. A
// peer proves it is alive by making a counter advance — the heartbeat word
// of a shared-memory segment (internal/shmfab), the bytes read off a TCP
// stream (internal/netfab) — and a counter that stops advancing for longer
// than the policy allows, without a clean goodbye, is a dead peer. The
// package owns only that policy: who bumps the counter, who samples it and
// what a goodbye looks like stay with the transport.
package beat

import "time"

// Policy is the detector's timing. The zero value of a field means its
// default.
type Policy struct {
	// Interval is how often a live rank must make its counter advance, and
	// how often an observer samples it (default 25ms).
	Interval time.Duration
	// Timeout convicts a peer whose counter has not advanced for this long
	// (default 5s).
	Timeout time.Duration
	// StartupGrace replaces Timeout for a peer that has never beaten: it
	// may still be booting (default 10s).
	StartupGrace time.Duration
}

// WithDefaults fills the zero fields of p.
func (p Policy) WithDefaults() Policy {
	if p.Interval <= 0 {
		p.Interval = 25 * time.Millisecond
	}
	if p.Timeout <= 0 {
		p.Timeout = 5 * time.Second
	}
	if p.StartupGrace <= 0 {
		p.StartupGrace = 10 * time.Second
	}
	return p
}

// Monitor is one observer's view of one peer's counter. It is not safe for
// concurrent use: one goroutine samples a given peer.
type Monitor struct {
	last       uint64
	lastChange time.Time
	everBeat   bool
}

// NewMonitor starts watching a peer at now, counter zero.
func NewMonitor(now time.Time) Monitor { return Monitor{lastChange: now} }

// Observe samples the peer's counter at now. It reports how long the
// counter has stood still and whether that exceeds the policy's limit —
// Timeout, or StartupGrace while the peer has never beaten.
func (m *Monitor) Observe(p Policy, counter uint64, now time.Time) (stalled time.Duration, dead bool) {
	if counter != m.last {
		m.last, m.lastChange, m.everBeat = counter, now, true
		return 0, false
	}
	limit := p.Timeout
	if !m.everBeat {
		limit = p.StartupGrace
	}
	stalled = now.Sub(m.lastChange)
	return stalled, stalled > limit
}
