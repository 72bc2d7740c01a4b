package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rma"
	"repro/internal/runtime"
	"repro/internal/shmfab"
)

// ShmBW measures aggregate notified-put bandwidth over the cross-process
// shared-memory transport (heap-segment cluster with heap window arenas:
// the same protocol the launcher runs over mapped files, minus the mmap)
// against the in-process Real engine as the reference: the shm rows must
// stay within a small factor of the in-memory fabric for the transport to
// be worth auto-selecting on one host. Each put is the origin's copy into
// the target's arena window plus one notification entry on the ring, so
// the transport counters read one entry per put and no bulk bytes at
// either size.
func ShmBW() *Table {
	iters, warmup, flushEvery := 4000, 400, 32
	if Quick {
		iters, warmup = 400, 50
	}

	t := &Table{
		Name:  "shmbw",
		Title: "Shared-memory segment ring vs in-process Real engine: aggregate put bandwidth (2 ranks)",
		Columns: []string{"engine", "payload-B", "MB/s", "entries",
			"bulk-MB", "frag", "stalls"},
	}
	for _, size := range []int{32, 4096} {
		real := bwRun(size, iters, warmup, flushEvery, realBWRunner)
		shm := bwRun(size, iters, warmup, flushEvery, shmBWRunner)
		t.AddRow("real", itoa(size), f2(real.mbps), "-", "-", "-", "-")
		t.AddRow("shm", itoa(size), f2(shm.mbps), fmt.Sprintf("%d", shm.entries),
			f2(float64(shm.bulkBytes)/1e6), fmt.Sprintf("%d", shm.frag),
			fmt.Sprintf("%d", shm.stalls))
		suffix := fmt.Sprintf("_%dB", size)
		t.SetMetric("mbps_real"+suffix, real.mbps)
		t.SetMetric("mbps_shm"+suffix, shm.mbps)
		ratio := 0.0
		if shm.mbps > 0 {
			ratio = real.mbps / shm.mbps
		}
		t.SetMetric("real_over_shm"+suffix, ratio)
	}
	t.Notes = append(t.Notes,
		"both ranks storm notified puts at each other concurrently (flush every 32); MB/s counts both directions' payload over the slower direction's wall time",
		"each shm put is the origin's copy into the target's window arena plus one compact notification entry: no bulk bytes at either size",
		"real_over_shm_* is the acceptance ratio: both engines now copy each payload once on the sending goroutine, so it tends to 1; the target's consumer still runs for every notification")
	return t
}

type bwResult struct {
	mbps      float64
	entries   uint64
	bulkBytes uint64
	frag      uint64
	stalls    uint64
}

// bwRunner executes body as a 2-rank job on some engine, returning one
// error per rank.
type bwRunner func(body func(p *runtime.Proc)) []error

func realBWRunner(body func(p *runtime.Proc)) []error {
	return []error{runtime.Run(runtime.Options{Ranks: 2, Mode: exec.Real}, body)}
}

func shmBWRunner(body func(p *runtime.Proc)) []error {
	return runtime.RunLocalShmCluster(runtime.Options{Ranks: 2}, body)
}

// bwRun runs one bidirectional notified-put storm on the given engine and
// reports aggregate bandwidth plus (when the link is the segment ring)
// the transport counters.
func bwRun(size, iters, warmup, flushEvery int, run bwRunner) bwResult {
	var mu sync.Mutex
	var res bwResult
	var elapsed time.Duration

	errs := run(func(p *runtime.Proc) {
		win := rma.Allocate(p, size)
		defer win.Free()
		partner := 1 - p.Rank()
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(p.Rank() + i)
		}
		storm := func(count int) {
			req := core.NotifyInit(win, partner, 7, count)
			defer req.Free()
			req.Start()
			for i := 0; i < count; i++ {
				core.PutNotify(win, partner, 0, payload, 7)
				if (i+1)%flushEvery == 0 {
					win.Flush(partner)
				}
			}
			win.Flush(partner)
			req.Wait() // absorb the partner's stream before leaving
		}
		storm(warmup)
		p.Barrier()
		t0 := time.Now()
		storm(iters)
		p.Barrier() // both directions complete before the clock stops
		d := time.Since(t0)

		mu.Lock()
		if p.Rank() == 0 {
			elapsed = d
		}
		if m, ok := p.World().Fabric().NetStatsSource().(interface{ ReadStats() shmfab.Stats }); ok {
			st := m.ReadStats()
			res.entries += st.EntriesSent
			res.bulkBytes += st.BulkBytesSent
			res.frag += st.FragFrames
			res.stalls += st.SendStalls
		}
		mu.Unlock()
	})
	for r, err := range errs {
		if err != nil {
			panic(fmt.Sprintf("bench: shmbw rank %d failed: %v", r, err))
		}
	}
	res.mbps = 2 * float64(iters) * float64(size) / elapsed.Seconds() / 1e6
	return res
}
