package fabric_test

// Windows in the shm window arena (DESIGN §9): on the in-process shm
// cluster every window lives in its rank's heap arena, so an origin puts
// and gets by copying itself. These tests pin the structure of that path
// (entries published, acks, outstanding ops, allocations) and its bounds
// check, which now runs at the origin.

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/rma"
	"repro/internal/runtime"
	"repro/internal/shmfab"
)

// shmStats reads the rank's segment-mesh counters.
func shmStats(p *runtime.Proc) shmfab.Stats {
	return p.World().Fabric().NetStatsSource().(interface{ ReadStats() shmfab.Stats }).ReadStats()
}

// runArenaPair runs body on a 2-rank in-process shm cluster and fails t
// with every rank's error.
func runArenaPair(t *testing.T, body func(p *runtime.Proc)) {
	t.Helper()
	for r, err := range runtime.RunLocalShmCluster(runtime.Options{Ranks: 2}, body) {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

// TestArenaNotifiedPutOneEntryNoAck pins the arena put's structure: a
// plain put publishes no ring entry, a notified put exactly one, the
// target sends nothing back for it (no ack entry, no ack packet), and
// Flush returns with no op outstanding. Checks report with t.Errorf and
// the protocol runs to its end, so a failure cannot strand the partner
// in a wait (the window is freed without defer for the same reason).
func TestArenaNotifiedPutOneEntryNoAck(t *testing.T) {
	const tag = 5
	runArenaPair(t, func(p *runtime.Proc) {
		win := rma.Allocate(p, 64)
		if p.Rank() == 0 {
			p.Barrier()
			before := shmStats(p).EntriesSent
			win.Put(1, 0, []byte("plain-00")).Detach()
			if d := shmStats(p).EntriesSent - before; d != 0 {
				t.Errorf("plain arena put published %d entries, want 0", d)
			}
			before = shmStats(p).EntriesSent
			core.PutNotify(win, 1, 8, []byte("notified"), tag).Detach()
			if d := shmStats(p).EntriesSent - before; d != 1 {
				t.Errorf("notified arena put published %d entries, want 1", d)
			}
			win.Flush(1)
			if n := p.NIC().Pending(1); n != 0 {
				t.Errorf("%d ops outstanding after Flush, want 0", n)
			}
			p.Barrier()
			win.Free()
			return
		}
		req := core.NotifyInit(win, 0, tag, 1)
		p.Barrier()
		sent, acks := shmStats(p).EntriesSent, p.World().Fabric().Stats.AckPackets.Load()
		req.Start()
		req.Wait()
		if got := win.Buffer()[:16]; !bytes.Equal(got, []byte("plain-00notified")) {
			t.Errorf("window holds %q after the notification", got)
		}
		if d := shmStats(p).EntriesSent - sent; d != 0 {
			t.Errorf("target published %d entries for the notified put, want 0", d)
		}
		if d := p.World().Fabric().Stats.AckPackets.Load() - acks; d != 0 {
			t.Errorf("target sent %d acks, want 0", d)
		}
		req.Free()
		p.Barrier()
		win.Free()
	})
}

// TestArenaPutFlushZeroAlloc pins a steady-state arena put plus Flush at
// 0 allocations (TestPutHotPathZeroAlloc's pin for the origin-side copy).
func TestArenaPutFlushZeroAlloc(t *testing.T) {
	runArenaPair(t, func(p *runtime.Proc) {
		win := rma.Allocate(p, 4096)
		if p.Rank() == 0 {
			buf := make([]byte, 4096)
			for i := 0; i < 64; i++ {
				win.Put(1, 0, buf).Detach()
			}
			win.Flush(1)
			if avg := testing.AllocsPerRun(200, func() {
				win.Put(1, 0, buf).Detach()
				win.Flush(1)
			}); avg >= 1 {
				t.Errorf("arena put + Flush allocates %.2f allocs/op, want 0", avg)
			}
		}
		p.Barrier()
		win.Free()
	})
}

// TestArenaOutOfRangeFailsAtOrigin issues each op kind out of bounds on an
// arena window: the origin's call panics on its own goroutine with a
// *fabric.RangeError naming the origin, and the target's run, which never
// sees the op, stays green.
func TestArenaOutOfRangeFailsAtOrigin(t *testing.T) {
	const size = 64
	for _, tc := range []struct {
		kind string
		op   func(win *rma.Win, buf []byte)
	}{
		{"put", func(win *rma.Win, buf []byte) { win.Put(1, size-4, buf) }},
		{"put-notify", func(win *rma.Win, buf []byte) { core.PutNotify(win, 1, size-4, buf, 3) }},
		{"get", func(win *rma.Win, buf []byte) { win.Get(1, size-4, buf) }},
		{"get-notify", func(win *rma.Win, buf []byte) { core.GetNotify(win, 1, size-4, buf, 3) }},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			runArenaPair(t, func(p *runtime.Proc) {
				win := rma.Allocate(p, size)
				if p.Rank() == 0 {
					err := func() (err error) {
						defer func() { err, _ = recover().(error) }()
						tc.op(win, make([]byte, 8))
						return nil
					}()
					var re *fabric.RangeError
					if !errors.As(err, &re) || re.Origin != 0 || re.Target != 1 {
						t.Errorf("out-of-range %s: recovered %v, want a RangeError from rank 0", tc.kind, err)
					}
				}
				p.Barrier()
				win.Free()
			})
		})
	}
}
