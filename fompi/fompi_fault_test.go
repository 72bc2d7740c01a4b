package fompi_test

import (
	"errors"
	"testing"

	"repro/fompi"
	"repro/internal/fault"
)

// TestFaultCrashedRankSurfacesTypedError crashes a rank before it can join
// the first collective: once the liveness timeout passes, the job must
// terminate with an error unwrapping to fompi.ErrPeerFailed instead of
// deadlocking in window allocation. It runs on Sim, where the timeout is
// virtual; runtime's TestCrashFanoutEveryEngine waits it out on the
// wall-clock engines.
func TestFaultCrashedRankSurfacesTypedError(t *testing.T) {
	plan := &fault.Plan{Ranks: []fault.RankFault{{Rank: 1, Mode: fault.Crash}}}
	err := fompi.Run(fompi.Options{Ranks: 2, FaultPlan: plan}, func(p *fompi.Proc) {
		win := p.WinAllocate(64) // collective: blocks on the dead rank
		win.Free()
	})
	if err == nil {
		t.Fatal("run with a crashed rank completed without error")
	}
	if !errors.Is(err, fompi.ErrPeerFailed) {
		t.Fatalf("error %v does not unwrap to ErrPeerFailed", err)
	}
}

// TestFaultStatsZeroWithoutPlan pins the link-repair counters at zero: the
// fabric is lossless and repairs nothing.
func TestFaultStatsZeroWithoutPlan(t *testing.T) {
	err := fompi.Run(fompi.Options{Ranks: 2}, func(p *fompi.Proc) {
		win := p.WinAllocate(64)
		defer win.Free()
		if p.Rank() == 0 {
			win.PutNotify(1, 0, []byte{1, 2, 3}, 5)
			win.Flush(1)
		} else {
			req := win.NotifyInit(0, 5, 1)
			req.Start()
			req.Wait()
			req.Free()
		}
		p.Barrier()
		if st := p.QueueStats(); st.Faults != (fompi.FaultStats{}) {
			t.Errorf("fault stats nonzero on a lossless job: %+v", st.Faults)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
