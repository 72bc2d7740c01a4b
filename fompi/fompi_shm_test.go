package fompi_test

// Tests of the TransportShm distributed engine: a 4-rank mixed-verb soak
// over heap-backed segment rings compared byte-for-byte against the Sim
// engine (inline puts, bulk puts, notified waits, accumulation), and the
// peer-failure semantics when a rank dies mid-run — the survivor parked on
// a notification must unblock with ErrPeerFailed once the dead rank's
// heartbeat stalls.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/fompi"
	"repro/internal/shmfab"
)

// shmSoakBody is a deterministic 4-rank mixed-verb workload on a ring
// topology: every rank PutNotifies its right neighbor (alternating
// entry-inline sizes and bulk-region sizes), awaits the notification from
// its left neighbor, reads its chunk back and verifies it, and
// accumulates into its left neighbor. Put regions are disjoint per
// origin, the accumulation is single-origin per window, and barriers
// separate the phases, so the final window contents are engine-independent.
func shmSoakBody(record func(rank int, buf []byte)) func(p *fompi.Proc) {
	const (
		winSize   = 1 << 16
		accumOff  = 1 << 15 // shared float64 accumulation area
		rounds    = 10
		notifyTag = 6
	)
	return func(p *fompi.Proc) {
		win := p.WinAllocate(winSize)
		defer win.Free()
		n := p.N()
		right := (p.Rank() + 1) % n
		left := (p.Rank() + n - 1) % n
		req := win.NotifyInit(left, notifyTag, 1)
		defer req.Free()

		for i := 0; i < rounds; i++ {
			// Even rounds stay under the ring's 40-byte inline payload;
			// odd rounds force the bulk region.
			var size int
			if i%2 == 0 {
				size = 1 + (i*7+p.Rank()*3)%32
			} else {
				size = 64 + (i*977+p.Rank()*131)%4000
			}
			data := make([]byte, size)
			for j := range data {
				data[j] = byte(i*31 + j*7 + p.Rank())
			}
			off := p.Rank() * (1 << 13) // origin-disjoint 8KiB regions
			win.PutNotify(right, off, data, notifyTag)
			win.Flush(right)
			req.Start()
			st := req.Wait()
			if st.Source != left || st.Tag != notifyTag {
				panic(fmt.Sprintf("rank %d round %d: notification <%d,%d>, want <%d,%d>",
					p.Rank(), i, st.Source, st.Tag, left, notifyTag))
			}
			p.Barrier()

			// Read our chunk back from the right neighbor and require the
			// ring to have carried it bytes-exact.
			back := make([]byte, size)
			win.Get(right, off, back)
			win.Flush(right)
			if !bytes.Equal(back, data) {
				panic(fmt.Sprintf("rank %d round %d: get returned corrupted data", p.Rank(), i))
			}

			// Commutative float64 accumulation into the left neighbor.
			vals := make([]float64, 16)
			for j := range vals {
				vals[j] = float64(i*100+j) + float64(p.Rank())*0.5
			}
			win.Accumulate(left, accumOff, vals, fompi.OpSum)
			win.Flush(left)
			p.Barrier()
		}
		buf := append([]byte(nil), win.Buffer()...)
		record(p.Rank(), buf)
	}
}

// TestShmSoakMatchesSim runs the 4-rank soak on the Sim engine and again
// over the shared-memory cluster (full ring protocol, heap segments, race
// detector watching), and requires the final window contents to match
// byte-for-byte on every rank.
func TestShmSoakMatchesSim(t *testing.T) {
	const ranks = 4
	run := func(shm bool) [][]byte {
		var mu sync.Mutex
		snaps := make([][]byte, ranks)
		record := func(rank int, buf []byte) {
			mu.Lock()
			snaps[rank] = buf
			mu.Unlock()
		}
		if shm {
			for r, err := range fompi.RunLocalShmCluster(fompi.Options{Ranks: ranks}, shmSoakBody(record)) {
				if err != nil {
					t.Fatalf("shm rank %d: %v", r, err)
				}
			}
		} else {
			if err := fompi.Run(fompi.Options{Ranks: ranks}, shmSoakBody(record)); err != nil {
				t.Fatalf("sim: %v", err)
			}
		}
		return snaps
	}
	simSnaps := run(false)
	shmSnaps := run(true)
	for r := 0; r < ranks; r++ {
		if simSnaps[r] == nil || shmSnaps[r] == nil {
			t.Fatalf("rank %d: missing snapshot (sim %v, shm %v)", r, simSnaps[r] != nil, shmSnaps[r] != nil)
		}
		if !bytes.Equal(simSnaps[r], shmSnaps[r]) {
			for i := range simSnaps[r] {
				if simSnaps[r][i] != shmSnaps[r][i] {
					t.Fatalf("rank %d: window diverges from Sim at byte %d: sim %#x, shm %#x",
						r, i, simSnaps[r][i], shmSnaps[r][i])
				}
			}
		}
	}
}

// TestTwoProcessShmCleanRun drives a real two-OS-process job over shared
// memory: this test binary is rank 0, a re-exec'd copy is rank 1, and the
// pair segment travels to the child as an inherited descriptor — the same
// flow cmd/nalaunch orchestrates with -transport shm. The child is the
// unchanged distChild body, configured entirely through the NA_* contract.
func TestTwoProcessShmCleanRun(t *testing.T) {
	seg, err := shmfab.CreateSegmentFile("", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"FOMPI_DIST_CHILD=pingpong",
		fompi.EnvTransport+"=shm",
		fompi.EnvRank+"=1",
		fompi.EnvNRanks+"=2",
		fompi.EnvShmFDs+"=0=3", // ExtraFiles[0] becomes fd 3 in the child
	)
	cmd.ExtraFiles = []*os.File{seg}
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		seg.Close()
		t.Fatalf("spawning child: %v", err)
	}
	// The child inherited its copy at Start; our handle feeds rank 0's own
	// mapping (and is closed by it).
	err = fompi.Run(fompi.Options{
		Ranks:     2,
		Transport: fompi.TransportShm,
		Shm:       &fompi.ShmConfig{Rank: 0, FDs: map[int]*os.File{1: seg}},
	}, parentBody(t))
	if err != nil {
		t.Errorf("rank 0: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("child rank exited uncleanly: %v", err)
	}
}

// TestShmPeerFailureUnblocks kills rank 1 (panic mid-run) in a shm
// cluster and requires rank 0 — parked on a notification that will never
// arrive — to unblock with an error unwrapping to ErrPeerFailed once the
// dead rank's heartbeat stalls, instead of hanging.
func TestShmPeerFailureUnblocks(t *testing.T) {
	const tag = 9
	done := make(chan []error, 1)
	go func() {
		done <- fompi.RunLocalShmCluster(fompi.Options{Ranks: 2}, func(p *fompi.Proc) {
			// No collective teardown (Free): rank 1 panics, and a deferred
			// collective on the dying rank would block its unwind on a peer
			// that is still healthy. Job teardown reclaims the window.
			win := p.WinAllocate(4096)
			partner := 1 - p.Rank()
			req := win.NotifyInit(partner, tag, 1)

			// Round 1 completes on both sides, so the failure strikes an
			// established, mid-run job.
			win.PutNotify(partner, 0, []byte("hello"), tag)
			win.Flush(partner)
			req.Start()
			req.Wait()

			if p.Rank() == 1 {
				panic("rank 1 dies mid-run")
			}
			req.Start()
			req.Wait() // rank 1 will never send this
			t.Error("rank 0 received a notification from a dead rank")
		})
	}()
	select {
	case errs := <-done:
		if errs[1] == nil || !strings.Contains(errs[1].Error(), "dies mid-run") {
			t.Errorf("rank 1 error = %v, want its own panic", errs[1])
		}
		if !errors.Is(errs[0], fompi.ErrPeerFailed) {
			t.Errorf("rank 0 error = %v, want errors.Is(..., ErrPeerFailed)", errs[0])
		}
	case <-time.After(60 * time.Second):
		t.Fatal("survivor never unblocked after peer death")
	}
}

// TestWaiterConsumesRings runs a notified-put ping-pong over a 2-rank shm
// cluster in bursts: each turn one rank puts burst notified puts into
// distinct slots (alternating inline and bulk sizes) with tags 1..burst,
// flushes, and waits for the partner's echo burst. Ranks blocked in Wait
// or Flush drive their own rings, so some entries must be consumed on the
// waiting goroutine (ShmNet.WaiterEntries > 0); the notifications must
// still match in the pair's FIFO order and every payload arrive intact.
func TestWaiterConsumesRings(t *testing.T) {
	const (
		rounds = 300
		burst  = 4
		slot   = 1 << 12
	)
	payload := func(rank, round, k int) []byte {
		size := 8 + k*13 // inline, within the ring entry
		if k%2 == 1 {
			size = 600 + k*97 // bulk region
		}
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(rank*59 + round*31 + k*17 + i*7)
		}
		return b
	}
	var waiterEntries [2]uint64
	errs := fompi.RunLocalShmCluster(fompi.Options{Ranks: 2}, func(p *fompi.Proc) {
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
		waiterEntries[p.Rank()] = p.QueueStats().ShmNet.WaiterEntries
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, n := range waiterEntries {
		if n == 0 {
			t.Errorf("rank %d: no ring entry was consumed by a waiting rank", r)
		}
	}
}
