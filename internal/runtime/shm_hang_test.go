package runtime

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/shmfab"
)

// TestShmHangModeTripsHeartbeat freezes rank 1 with the injector's hang
// mode — sends silenced, heartbeat suppressed, process alive and still
// consuming — and requires the survivor to convict it through the segment
// heartbeat detector. A hung process is the failure shared memory cannot
// see any other way: the segment stays mapped and the rings stay open, so
// only the liveness word going quiet distinguishes it from a slow peer.
// The test pins the whole chain: injector hang → runRank's down-hook
// mirror → SuppressHeartbeat → stall conviction → ErrPeerFailed at the
// survivor. The hung rank's fabric absorbs its sends at transmit and
// declares nothing itself: on a link, a peer's liveness detector is the
// only judge.
func TestShmHangModeTripsHeartbeat(t *testing.T) {
	const n = 2
	seg := shmfab.NewHeapSegment(0, 1)
	var (
		mu   sync.Mutex
		injs [n]*fault.Injector
	)
	errs := make([]error, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			segs := make([]*shmfab.Segment, n)
			segs[1-r] = seg
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[r] = RunShm(ShmOptions{
					Self:              r,
					Segments:          segs,
					HeartbeatInterval: 2 * time.Millisecond,
					HeartbeatTimeout:  250 * time.Millisecond,
					StartupGrace:      2 * time.Second,
				}, Options{Ranks: n, FaultPlan: &fault.Plan{}}, func(p *Proc) {
					inj := p.World().Fabric().Injector()
					mu.Lock()
					injs[p.Rank()] = inj
					mu.Unlock()
					p.Barrier() // the hang strikes an established, healthy job
					if p.Rank() == 1 {
						inj.Hang(1)
					}
					// Rank 1's half of this barrier is absorbed by the
					// injector, so it can only resolve through the failure
					// detector — on both sides: rank 0 convicts the stalled
					// heartbeat, and rank 1 (parked, still consuming)
					// convicts rank 0 once its abrupt close stops *its*
					// heartbeat.
					p.Barrier()
					if p.Rank() == 0 {
						t.Error("rank 0 passed a barrier with a hung peer")
					}
				})
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cluster never unwound after the hang")
	}
	if !errors.Is(errs[0], fabric.ErrPeerFailed) {
		t.Errorf("survivor error = %v, want errors.Is(..., ErrPeerFailed)", errs[0])
	}
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "heartbeat stalled") {
		t.Errorf("survivor error = %v, want the heartbeat detector's verdict", errs[0])
	}
	if !errors.Is(errs[1], fabric.ErrPeerFailed) {
		t.Errorf("hung rank error = %v, want errors.Is(..., ErrPeerFailed)", errs[1])
	}
	mu.Lock()
	defer mu.Unlock()
	if m, down := injs[1].Down(1); !down || m != fault.Hang {
		t.Errorf("hung rank's injector reports Down(1) = %v, %v", m, down)
	}
	if _, down := injs[0].Down(1); down {
		t.Error("the survivor's injector learned of the hang; only the heartbeat may tell it")
	}
}
