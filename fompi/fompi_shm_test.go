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

// shmChild starts this test binary as rank 1 of a two-process shm job,
// running the given FOMPI_DIST_CHILD role. The pair segment and both
// ranks' window arenas travel to the child as inherited descriptors named
// in NA_SHM_FDS, as cmd/nalaunch passes them; the returned map is rank
// 0's own handles (fompi.Run consumes them).
func shmChild(t *testing.T, role string) (*exec.Cmd, map[int]*os.File) {
	t.Helper()
	seg, err := shmfab.CreateSegmentFile("", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	fds := map[int]*os.File{1: seg}
	closeAll := func() {
		for _, f := range fds {
			f.Close()
		}
	}
	for r := 0; r < 2; r++ {
		f, err := shmfab.CreateArenaFile("", r)
		if err != nil {
			closeAll()
			t.Fatal(err)
		}
		fds[shmfab.ArenaKey(r)] = f
	}
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"FOMPI_DIST_CHILD="+role,
		fompi.EnvTransport+"=shm",
		fompi.EnvRank+"=1",
		fompi.EnvNRanks+"=2",
		fompi.EnvShmFDs+"=0=3,a0=4,a1=5", // ExtraFiles[i] becomes fd 3+i
	)
	cmd.ExtraFiles = []*os.File{seg, fds[shmfab.ArenaKey(0)], fds[shmfab.ArenaKey(1)]}
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		closeAll()
		t.Fatalf("spawning child: %v", err)
	}
	return cmd, fds
}

// TestTwoProcessShmCleanRun drives a real two-OS-process job over shared
// memory: this test binary is rank 0, a re-exec'd copy is rank 1, and the
// pair segment and window arenas travel to the child as inherited
// descriptors — the same flow cmd/nalaunch orchestrates with -transport
// shm. The child is the unchanged distChild body, configured entirely
// through the NA_* contract.
func TestTwoProcessShmCleanRun(t *testing.T) {
	cmd, fds := shmChild(t, "pingpong")
	err := fompi.Run(fompi.Options{
		Ranks:     2,
		Transport: fompi.TransportShm,
		Shm:       &fompi.ShmConfig{Rank: 0, FDs: fds},
	}, parentBody(t))
	if err != nil {
		t.Errorf("rank 0: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("child rank exited uncleanly: %v", err)
	}
}

// Window layout of the two-process arena exchange: rank 0's ping lands at
// arenaPing in rank 1's window; rank 1 reads rank 0's arenaGetN (notified)
// and arenaGet (plain) spans and echoes both back to rank 0's arenaEcho.
const (
	arenaSpan  = 1024
	arenaPing  = 0
	arenaEcho  = 4096
	arenaGetN  = 8192
	arenaGet   = 12288
	arenaTagGN = 8
)

// arenaPattern is the deterministic content of one span.
func arenaPattern(seed int) []byte {
	b := make([]byte, arenaSpan)
	for i := range b {
		b[i] = byte(seed*41 + i*3)
	}
	return b
}

// arenaChild is rank 1 of TestTwoProcessShmArena, configured through the
// NA_* environment: it verifies rank 0's notified put, reads two spans of
// rank 0's window (GetNotify and Get) and echoes them with a notified put.
func arenaChild() {
	err := fompi.Run(fompi.Options{Ranks: 2}, func(p *fompi.Proc) {
		win := p.WinAllocate(1 << 16)
		defer win.Free()
		req := win.NotifyInit(0, distChildTag, 1)
		defer req.Free()
		p.Barrier()
		req.Start()
		req.Wait()
		if !bytes.Equal(win.Buffer()[arenaPing:arenaPing+arenaSpan], arenaPattern(1)) {
			panic("child: notified put from rank 0 corrupted")
		}
		echo := make([]byte, 2*arenaSpan)
		win.GetNotify(0, arenaGetN, echo[:arenaSpan], arenaTagGN).Await()
		win.Get(0, arenaGet, echo[arenaSpan:])
		win.Flush(0)
		win.PutNotify(0, arenaEcho, echo, distChildTag)
		win.Flush(0)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "child: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// TestTwoProcessShmArena runs a PutNotify, a GetNotify and a Get across two
// real processes through memfd window arenas, passed with the pair
// segment as cmd/nalaunch passes them: every byte must cross
// exactly, and the notified put must be one ring entry with nothing in
// the bulk region — the origin's copy, not a frame.
func TestTwoProcessShmArena(t *testing.T) {
	cmd, fds := shmChild(t, "arena")
	err := fompi.Run(fompi.Options{
		Ranks:     2,
		Transport: fompi.TransportShm,
		Shm:       &fompi.ShmConfig{Rank: 0, FDs: fds},
	}, func(p *fompi.Proc) {
		win := p.WinAllocate(1 << 16)
		defer win.Free()
		copy(win.Buffer()[arenaGetN:], arenaPattern(2))
		copy(win.Buffer()[arenaGet:], arenaPattern(3))
		readN := win.NotifyInit(1, arenaTagGN, 1)
		defer readN.Free()
		echo := win.NotifyInit(1, distChildTag, 1)
		defer echo.Free()
		p.Barrier()

		before := p.QueueStats().ShmNet
		win.PutNotify(1, arenaPing, arenaPattern(1), distChildTag)
		win.Flush(1)
		after := p.QueueStats().ShmNet
		if d, b := after.EntriesSent-before.EntriesSent, after.BulkBytesSent-before.BulkBytesSent; d != 1 || b != 0 {
			t.Errorf("notified put published %d entries and %d bulk bytes, want 1 and 0", d, b)
		}
		readN.Start()
		if st := readN.Wait(); st.Source != 1 || st.Tag != arenaTagGN {
			t.Errorf("GetNotify notification <%d,%d>, want <1,%d>", st.Source, st.Tag, arenaTagGN)
		}
		echo.Start()
		echo.Wait()
		got := win.Buffer()[arenaEcho : arenaEcho+2*arenaSpan]
		if !bytes.Equal(got[:arenaSpan], arenaPattern(2)) || !bytes.Equal(got[arenaSpan:], arenaPattern(3)) {
			t.Errorf("spans read by the child's GetNotify and Get came back corrupted")
		}
	})
	if err != nil {
		t.Errorf("rank 0: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("child rank exited uncleanly: %v", err)
	}
}

// holderWin is the window TestTwoProcessShmHolderKilled's child copies
// into: large enough that the child spends nearly all its time inside a
// copy, holding the window's lock word.
const holderWin = 8 << 20

// holderChild is rank 1 of TestTwoProcessShmHolderKilled: it signals with
// a notified put, then copies into rank 0's window until it is killed.
func holderChild() {
	err := fompi.Run(fompi.Options{Ranks: 2}, func(p *fompi.Proc) {
		win := p.WinAllocate(holderWin)
		p.Barrier()
		big := make([]byte, holderWin)
		win.PutNotify(0, 0, big[:8], distChildTag)
		for {
			win.Put(0, 0, big)
		}
	})
	fmt.Fprintf(os.Stderr, "holder child: %v\n", err)
	os.Exit(1)
}

// TestTwoProcessShmHolderKilled kills an origin process in the middle of
// its copies into rank 0's window, so it dies holding the window's lock
// word in the shared arena. Rank 0's next CommitLocal on the window must
// return once the heartbeat convicts the dead rank (the waiter breaks the
// dead holder's hold), and the run must end with ErrPeerFailed, not hang.
// A kill that lands between two copies leaves the word free; the test
// retries until one lands inside a copy (CommitLocal counted as
// contended), which nearly every kill does.
func TestTwoProcessShmHolderKilled(t *testing.T) {
	for try := 1; !killHolder(t); try++ {
		if try == 3 {
			t.Fatal("in 3 tries no kill landed while the child held the window's lock word")
		}
	}
}

// killHolder runs one kill and reports whether rank 0's CommitLocal had
// to wait for the dead child's hold.
func killHolder(t *testing.T) (contended bool) {
	cmd, fds := shmChild(t, "holder")
	watchdog := time.AfterFunc(60*time.Second, func() {
		cmd.Process.Kill()
		panic("TestTwoProcessShmHolderKilled: rank 0 still blocked after 60 s")
	})
	defer watchdog.Stop()
	err := fompi.Run(fompi.Options{
		Ranks:     2,
		Transport: fompi.TransportShm,
		Shm: &fompi.ShmConfig{Rank: 0, FDs: fds,
			HeartbeatTimeout: 300 * time.Millisecond, StartupGrace: time.Second},
	}, func(p *fompi.Proc) {
		win := p.WinAllocate(holderWin)
		ready := win.NotifyInit(1, distChildTag, 1)
		p.Barrier()
		ready.Start()
		ready.Wait()
		ready.Free()
		time.Sleep(20 * time.Millisecond) // the child is deep in its copy loop
		cmd.Process.Kill()
		cmd.Wait()
		before := p.QueueStats().RegionLockContention
		win.CommitLocal(0, []byte("survivor"))
		contended = p.QueueStats().RegionLockContention > before
		got := make([]byte, 8)
		win.ReadLocal(0, got)
		if string(got) != "survivor" {
			t.Errorf("window reads %q after CommitLocal, want %q", got, "survivor")
		}
	})
	if !errors.Is(err, fompi.ErrPeerFailed) {
		t.Errorf("rank 0: %v, want ErrPeerFailed", err)
	}
	t.Logf("kill landed inside a copy: %v", contended)
	return contended || t.Failed()
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
