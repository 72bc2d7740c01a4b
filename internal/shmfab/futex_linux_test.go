//go:build linux && (amd64 || arm64)

package shmfab

import (
	"testing"
	"time"

	"repro/internal/wire"
)

// TestIdleMeshSleeps: once its spin window has passed, an idle 2-rank
// mesh's pollers sleep on the doorbell and make no round at all for
// 50 ms (no park, no ring, no entry); a put sent afterwards rings the
// peer awake and is delivered.
func TestIdleMeshSleeps(t *testing.T) {
	m0, m1 := heapPair(t, nil)
	var c0, c1 capture
	m0.Start(c0.rx, c0.down)
	m1.Start(c1.rx, c1.down)
	defer closePair(t, m0, m1)
	deadline := time.Now().Add(5 * time.Second)
	for m0.ReadStats().Parks == 0 || m1.ReadStats().Parks == 0 || !m0.parked.Load() || !m1.parked.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("pollers of an idle mesh never slept: %+v / %+v", m0.ReadStats(), m1.ReadStats())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // both inside futex_waitv by now
	if m0.sleeper.noWaitv.Load() {
		t.Skip("futex_waitv unavailable: the poller falls back to a bounded sleep")
	}
	before0, before1 := m0.ReadStats(), m1.ReadStats()
	time.Sleep(50 * time.Millisecond)
	after0, after1 := m0.ReadStats(), m1.ReadStats()
	if after0 != before0 || after1 != before1 {
		t.Fatalf("idle pollers made rounds over 50 ms:\n%+v -> %+v\n%+v -> %+v", before0, after0, before1, after1)
	}
	fr := &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, WireSize: 3, OpID: 1, Data: []byte{1, 2, 3}}
	if err := m0.Send(1, fr); err != nil {
		t.Fatal(err)
	}
	c1.waitFrames(t, 1)
	if r := m0.ReadStats().Rings; r != 1 {
		t.Fatalf("Rings = %d after one put to a sleeping peer, want 1", r)
	}
}

// TestIdleMeshFallbackDelivers runs an idle pair whose receiving poller
// behaves as on a kernel without futex_waitv: it sleeps in the bounded
// fallback, and a put sent after the spin window is still delivered.
func TestIdleMeshFallbackDelivers(t *testing.T) {
	m0, m1 := heapPair(t, nil)
	m1.sleeper.noWaitv.Store(true)
	var c0, c1 capture
	m0.Start(c0.rx, c0.down)
	m1.Start(c1.rx, c1.down)
	defer closePair(t, m0, m1)
	deadline := time.Now().Add(5 * time.Second)
	for m1.ReadStats().Parks < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("the fallback poller never slept: %+v", m1.ReadStats())
		}
		time.Sleep(time.Millisecond)
	}
	fr := &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, WireSize: 3, OpID: 1, Data: []byte{1, 2, 3}}
	if err := m0.Send(1, fr); err != nil {
		t.Fatal(err)
	}
	c1.waitFrames(t, 1)
}
