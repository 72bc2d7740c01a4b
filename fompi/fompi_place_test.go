package fompi_test

// Tests of placed reads on TransportTCP: a bulk put whose payload is all in
// the socket is read straight into the target window (netfab's placed
// read), and everything a placement declines must behave as before.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/fompi"
)

// TestTCPBigPutsPlaced interleaves 256 KiB notified puts with 8 B ones
// between two TCP ranks, both ways: the notifications must match in the
// pair's FIFO order, every window slot must hold its payload byte for
// byte, and some bulk puts must have been placed (Net.PlacedFrames).
func TestTCPBigPutsPlaced(t *testing.T) {
	const (
		rounds = 40
		burst  = 6
		big    = 256 << 10
		slot   = big + 64
	)
	size := func(k int) int {
		if k%2 == 0 {
			return big
		}
		return 8
	}
	payload := func(rank, round, k int) []byte {
		b := make([]byte, size(k))
		for i := range b {
			b[i] = byte(rank*71 + round*29 + k*13 + i*3 + i>>9)
		}
		return b
	}
	var placed [2]uint64
	errs := fompi.RunLocalCluster(fompi.Options{Ranks: 2}, func(p *fompi.Proc) {
		win := p.WinAllocate(burst * slot)
		defer win.Free()
		partner := 1 - p.Rank()
		req := win.NotifyInit(partner, fompi.AnyTag, 1)
		defer req.Free()
		send := func(round int) {
			for k := 0; k < burst; k++ {
				win.PutNotify(partner, k*slot, payload(p.Rank(), round, k), 1+k)
			}
			win.Flush(partner)
		}
		recv := func(round int) {
			for k := 0; k < burst; k++ {
				req.Start()
				if st := req.Wait(); st.Source != partner || st.Tag != 1+k {
					panic(fmt.Sprintf("rank %d round %d: notification %d is <%d,%d>, want <%d,%d>",
						p.Rank(), round, k, st.Source, st.Tag, partner, 1+k))
				}
			}
			for k := 0; k < burst; k++ {
				want := payload(partner, round, k)
				if got := win.Buffer()[k*slot : k*slot+len(want)]; !bytes.Equal(got, want) {
					panic(fmt.Sprintf("rank %d round %d: slot %d holds wrong bytes", p.Rank(), round, k))
				}
			}
		}
		for round := 0; round < rounds; round++ {
			if p.Rank() == 0 {
				send(round)
				recv(round)
			} else {
				recv(round)
				send(round)
			}
		}
		placed[p.Rank()] = p.QueueStats().Net.PlacedFrames
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if placed[0]+placed[1] == 0 {
		t.Errorf("no bulk put was placed (PlacedFrames %v of %d bulk puts)", placed, rounds*burst)
	}
	t.Logf("placed %v of %d bulk puts per rank", placed, rounds*burst/2)
}

// TestTCPPlacedPutIsAtomicForReadLocal has rank 0 put 256 KiB of one
// pattern, then of another, over and over into the same slot of rank 1's
// window, while rank 1 reads the slot with ReadLocal: a placed put holds
// the window's write lock for its whole read from the socket, so no read
// may see the two patterns mixed. The puts go out in bursts, so that
// while rank 1's reader waits for the lock the next put lands in the
// socket whole and is placed; rank 0 keeps bursting until rank 1 has
// seen enough placements (or a deadline passed), then says it is done.
func TestTCPPlacedPutIsAtomicForReadLocal(t *testing.T) {
	const (
		big        = 256 << 10
		wantPlaced = 100
		stop, done = 7, 8
	)
	patterns := [2][]byte{bytes.Repeat([]byte{0xa5}, big), bytes.Repeat([]byte{0x3c}, big)}
	var placed uint64
	var reads, puts int
	errs := fompi.RunLocalCluster(fompi.Options{Ranks: 2}, func(p *fompi.Proc) {
		win := p.WinAllocate(big)
		defer win.Free()
		if p.Rank() == 0 {
			// Rank 1 says stop within its 10 s; the bound ends the loop
			// if rank 1 died instead (a failed peer's Flush returns).
			bound := time.Now().Add(15 * time.Second)
			for stopped := false; !stopped && time.Now().Before(bound); {
				for k := 0; k < 4; k++ {
					win.Put(1, 0, patterns[puts%2])
					puts++
				}
				win.Flush(1)
				_, stopped = win.IprobeNotify(1, stop)
			}
			win.PutNotify(1, 0, nil, done)
			win.Flush(1)
			return
		}
		got := make([]byte, big)
		deadline := time.Now().Add(10 * time.Second)
		for stopping := false; ; {
			win.ReadLocal(0, got)
			reads++
			first := got[0]
			if first != 0 && first != patterns[0][0] && first != patterns[1][0] {
				panic(fmt.Sprintf("read %d: byte 0 is %#x", reads, first))
			}
			for i, b := range got {
				if b != first {
					panic(fmt.Sprintf("read %d: bytes 0 and %d differ (%#x, %#x): a put was seen half done", reads, i, first, b))
				}
			}
			if !stopping && (p.QueueStats().Net.PlacedFrames >= wantPlaced || time.Now().After(deadline)) {
				win.PutNotify(0, 0, nil, stop)
				win.Flush(0)
				stopping = true
			}
			if _, ok := win.IprobeNotify(0, done); ok {
				break
			}
		}
		placed = p.QueueStats().Net.PlacedFrames
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if placed == 0 {
		t.Errorf("no put was placed in %d", puts)
	}
	t.Logf("%d reads, %d of %d puts placed", reads, placed, puts)
}

// TestTCPBigPutFailuresUnchanged aims 256 KiB puts where a placement must
// decline them: past the end of the target's window, and at a window the
// target freed. Each must fail the target rank with delivery's own panic,
// exactly as a put read through the framer does. Good bulk puts go first
// in the same burst, so that the bad one lands whole in the socket while
// rank 1's reader is busy, and is offered for placement.
func TestTCPBigPutFailuresUnchanged(t *testing.T) {
	const big = 256 << 10
	burst := func(p *fompi.Proc, good, bad *fompi.Win) {
		if p.Rank() == 0 {
			for i := 0; i < 3; i++ {
				good.Put(1, 0, make([]byte, big))
			}
			bad.Put(1, 0, make([]byte, big))
			bad.Flush(1)
		}
		p.Barrier()
	}
	cases := []struct {
		name string
		body func(p *fompi.Proc)
		want string
	}{
		{"out of bounds", func(p *fompi.Proc) {
			good, bad := p.WinAllocate(big), p.WinAllocate(64<<10)
			burst(p, good, bad)
		}, "rank 1 delivery panicked: fabric: rank 1: put out of bounds: region 3 off 0 len 262144 (region len 65536)"},
		{"freed window", func(p *fompi.Proc) {
			good, bad := p.WinAllocate(big), p.WinAllocate(big)
			bad.Free()
			p.Barrier() // rank 1's window is gone before the put leaves
			burst(p, good, bad)
		}, "rank 1 delivery panicked: fabric: rank 1: access to unregistered region 3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			errs := fompi.RunLocalCluster(fompi.Options{Ranks: 2}, c.body)
			if errs[1] == nil || !strings.Contains(errs[1].Error(), c.want) {
				t.Fatalf("rank 1 error %v, want one containing %q", errs[1], c.want)
			}
		})
	}
}
