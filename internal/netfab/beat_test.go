//go:build linux

package netfab

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/beat"
	"repro/internal/wire"
)

// testBeat is the detector timing the liveness tests run at: the defaults
// shrunk 25-fold (a timeout much shorter than this starts to convict
// goroutines the scheduler merely kept waiting on a loaded two-core box).
var testBeat = beat.Policy{Interval: 5 * time.Millisecond, Timeout: 200 * time.Millisecond, StartupGrace: 400 * time.Millisecond}

// beatModes runs a liveness test over both ways of building a mesh: one
// connected pair by pair (Loopback) and one through the rendezvous
// (Bootstrap). Both are localhost TCP read by the single epoll poller.
func beatModes(t *testing.T, n int, test func(t *testing.T, meshes []*Mesh)) {
	t.Parallel() // these tests mostly sleep
	for _, mode := range []struct {
		name string
		mesh func(testing.TB, int) []*Mesh
	}{
		{"loopback", loopback},
		{"tcp", tcpMeshes},
	} {
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			meshes := mode.mesh(t, n)
			for _, m := range meshes {
				m.hb = testBeat
			}
			defer func() {
				for _, m := range meshes {
					m.Close(false)
				}
			}()
			test(t, meshes)
		})
	}
}

// down is one peerDown callback: observer was told that failed is dead.
type down struct {
	observer, failed int
	err              error
	at               time.Time
}

func (d down) String() string { return fmt.Sprintf("%d<-%d: %v", d.observer, d.failed, d.err) }

// downLog collects the peerDown callbacks of a whole job.
type downLog struct {
	mu    sync.Mutex
	downs []down
}

func (l *downLog) hook(observer int) func(int, error) {
	return func(rank int, err error) {
		l.mu.Lock()
		l.downs = append(l.downs, down{observer, rank, err, time.Now()})
		l.mu.Unlock()
	}
}

func (l *downLog) snapshot() []down {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]down(nil), l.downs...)
}

// TestHeartbeatConvictsSilentPeerOnly is both halves of the detector's
// contract on one job. An idle, healthy job — no frame sent by anyone for
// 20 timeouts — must report nobody: Beat frames keep every stream audibly
// alive. Then rank 2 plays the SIGSTOPped process (connections open,
// heartbeat suppressed, nothing sent): ranks 0 and 1 must each report it
// through peerDown as a stalled heartbeat within two timeouts, and must
// still not report each other. (What rank 2 concludes is its own affair:
// convicted peers stop beating to it, so it convicts them back.)
func TestHeartbeatConvictsSilentPeerOnly(t *testing.T) {
	beatModes(t, 3, func(t *testing.T, meshes []*Mesh) {
		var log downLog
		for r, m := range meshes {
			m.Start(func(int, *wire.Frame) {}, log.hook(r))
		}
		time.Sleep(20 * testBeat.Timeout)
		if downs := log.snapshot(); len(downs) != 0 {
			t.Fatalf("idle healthy job reported failures: %v", downs)
		}

		meshes[2].SuppressHeartbeat()
		hung := time.Now()
		time.Sleep(2 * testBeat.Timeout)
		downs := log.snapshot()
		convicted := map[int]bool{}
		for _, d := range downs {
			if d.observer == 2 {
				continue
			}
			if d.failed != 2 || !strings.Contains(d.err.Error(), "heartbeat stalled") {
				t.Errorf("unexpected peerDown %v: want only rank 2, as a stalled heartbeat", d)
			}
			if since := d.at.Sub(hung); since < testBeat.Timeout/2 {
				t.Errorf("peerDown %v came %v after rank 2 went silent, before a timeout could elapse", d, since)
			}
			convicted[d.observer] = true
		}
		if !convicted[0] || !convicted[1] {
			t.Errorf("ranks 0 and 1 must both convict the silent rank 2 inside two timeouts; peerDowns: %v", downs)
		}
	})
}

// TestHeartbeatStalledReaderConvictsNobody parks rank 0's receive path
// inside its rx callback — what a full receive lane does to the poller —
// for two timeouts while ranks 1 and 2 stay healthy. Their Beat frames
// pile up unread; when the reader resumes it must read them before it
// measures anybody's silence. A local stall is not a remote death.
func TestHeartbeatStalledReaderConvictsNobody(t *testing.T) {
	beatModes(t, 3, func(t *testing.T, meshes []*Mesh) {
		var log downLog
		parked := make(chan struct{})
		meshes[0].Start(func(from int, fr *wire.Frame) {
			close(parked)
			time.Sleep(2 * testBeat.Timeout)
		}, log.hook(0))
		for r := 1; r < 3; r++ {
			meshes[r].Start(func(int, *wire.Frame) {}, log.hook(r))
		}
		if err := meshes[1].Send(0, &wire.Frame{Kind: wire.KindPut, Origin: 1, Target: 0}); err != nil {
			t.Fatal(err)
		}
		<-parked
		time.Sleep(4 * testBeat.Timeout) // the stall, then a timeout's worth of checks after it
		if downs := log.snapshot(); len(downs) != 0 {
			t.Fatalf("a stalled local reader convicted healthy peers: %v", downs)
		}
	})
}
