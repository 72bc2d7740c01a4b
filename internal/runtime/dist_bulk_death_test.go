package runtime

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
)

// TestDistBulkPeerDeathDrains kills rank 1 right as rank 0 starts an 8 MiB
// put to it — one eager frame far larger than the socket buffers and the
// peer's read buffer, so the death lands mid-transfer: the write may fail
// at the socket, block on a peer that stopped reading, or be fully
// written and never acknowledged. In every one of those interleavings
// rank 0's put must complete with ErrPeerFailed (not hang) and every
// pooled transfer buffer must be returned: a rank death mid-transfer leaks
// nothing.
func TestDistBulkPeerDeathDrains(t *testing.T) {
	const (
		regionSize = 9 << 20
		paySize    = 8 << 20
	)
	var (
		mu      sync.Mutex
		opErr   error
		drained bool
		last    string
	)
	done := make(chan []error, 1)
	go func() {
		done <- RunLocalCluster(Options{Ranks: 2}, func(p *Proc) {
			nic := p.NIC()
			reg := nic.Register(make([]byte, regionSize))
			p.Barrier()
			if p.Rank() == 1 {
				panic("rank 1 dies mid-transfer")
			}
			fab := p.World().Fabric()
			before := fab.PoolStats()
			op := nic.Put(p.Proc, 1, reg.ID, 0, make([]byte, paySize), fabric.Imm{})
			op.Await(p.Proc)
			mu.Lock()
			opErr = op.Err()
			mu.Unlock()
			// The declaration that completed the op also swept its state,
			// but the link's rx goroutine may still be recycling what the
			// dying rank sent last — poll briefly for the fixpoint.
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				st := fab.PoolStats()
				mu.Lock()
				last = fmt.Sprintf("put-era pool gets=%d returns=%d",
					st.Gets-before.Gets, st.Returns-before.Returns)
				if st.Gets-before.Gets == st.Returns-before.Returns {
					drained = true
					mu.Unlock()
					return
				}
				mu.Unlock()
				time.Sleep(10 * time.Millisecond)
			}
		})
	}()
	select {
	case errs := <-done:
		if errs[1] == nil || !strings.Contains(errs[1].Error(), "dies mid-transfer") {
			t.Errorf("rank 1 error = %v, want its own panic", errs[1])
		}
		if !errors.Is(errs[0], fabric.ErrPeerFailed) {
			t.Errorf("rank 0 run error = %v, want errors.Is(..., ErrPeerFailed)", errs[0])
		}
		mu.Lock()
		defer mu.Unlock()
		if !errors.Is(opErr, fabric.ErrPeerFailed) {
			t.Errorf("doomed put completed with %v, want errors.Is(..., ErrPeerFailed)", opErr)
		}
		if !drained {
			t.Errorf("pooled buffers leaked after peer death: %s", last)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("rank 0 never unblocked from the mid-transfer peer death")
	}
}
