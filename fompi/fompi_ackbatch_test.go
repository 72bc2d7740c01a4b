package fompi_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/fompi"
)

// runCluster runs body on a 2-rank loopback TCP cluster and fails the
// test on a rank error, or if the job has not ended within a minute.
func runCluster(t *testing.T, body func(p *fompi.Proc)) {
	t.Helper()
	done := make(chan []error, 1)
	go func() { done <- fompi.RunLocalCluster(fompi.Options{Ranks: 2}, body) }()
	select {
	case errs := <-done:
		for r, err := range errs {
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
		}
	case <-time.After(60 * time.Second):
		t.Fatal("the job did not end within 60 s: an op never completed")
	}
}

// TestDistAcksRankAndHandlerRace has two goroutines of rank 0 put to rank
// 1 at once: the rank itself, and its active-message handler, which
// answers each of rank 1's requests with a chained notified put. Their
// frames interleave on the stream in an order neither chose, and rank 1
// acks each read's puts in one frame. Every op must complete: rank 0's
// Flush returns, and rank 1 sees every chained notification.
func TestDistAcksRankAndHandlerRace(t *testing.T) {
	const (
		reqs    = 320
		burst   = 8
		puts    = 2000
		tagReq  = 7
		tagBack = 8
		slot    = 4 << 10
	)
	runCluster(t, func(p *fompi.Proc) {
		win := p.WinAllocate(4 * slot)
		defer win.Free()
		var reg *fompi.HandlerReg
		if p.Rank() == 0 {
			reg = win.RegisterHandler(tagReq, func(m *fompi.AMsg) {
				win.ChainPutNotify(1, 3*slot, []byte("chained!"), tagBack)
			})
		}
		p.Barrier()
		if p.Rank() == 1 {
			// Requests go in rounds of burst, so the handler's queue never
			// sheds one.
			back := win.NotifyInit(0, tagBack, burst)
			for i := 0; i < reqs; i += burst {
				back.Start()
				for j := 0; j < burst; j++ {
					win.PutNotify(0, 8*j, []byte("request!"), tagReq)
				}
				win.Flush(0)
				back.Wait()
			}
			back.Free()
			p.Barrier()
			return
		}
		// The rank puts until its handler has answered every request.
		small, big := make([]byte, 8), make([]byte, slot)
		for i := 0; i < puts || p.QueueStats().AM[tagReq].Dispatched < reqs; i++ {
			if i%2 == 0 {
				win.Put(1, 0, small)
			} else {
				win.Put(1, slot, big)
			}
			if i%100 == 99 {
				win.Flush(1)
			}
		}
		win.Flush(1)
		p.FlushHandlers()
		win.Flush(1) // the handler's chained puts too
		p.Barrier()
		reg.Unregister()
	})
}

// TestDistBigGetAllocatesLittle: a warmed 256 KiB Get with its Flush over
// loopback TCP allocates under 4 KiB, process-wide. The data holder's
// reply is encoded into a chunk sized to it, which its stream keeps for
// the next.
func TestDistBigGetAllocatesLittle(t *testing.T) {
	const (
		size   = 256 << 10
		warm   = 50
		gets   = 200
		budget = 4 << 10
	)
	runCluster(t, func(p *fompi.Proc) {
		win := p.WinAllocate(size)
		defer win.Free()
		p.Barrier()
		if p.Rank() == 1 {
			dst := make([]byte, size)
			for i := 0; i < warm; i++ {
				win.Get(0, 0, dst)
				win.Flush(0)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < gets; i++ {
				win.Get(0, 0, dst)
				win.Flush(0)
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / gets; per >= budget {
				panic(fmt.Sprintf("a 256 KiB Get+Flush allocates %d B, want < %d", per, budget))
			}
		}
		p.Barrier()
	})
}
