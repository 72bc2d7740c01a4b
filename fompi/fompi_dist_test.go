package fompi_test

// Tests of the TransportTCP distributed engine: the loopback cluster (full
// wire path, one process), a mixed-verb soak compared byte-for-byte against
// the Sim engine, peer-failure semantics when a rank dies mid-run, and real
// two-OS-process jobs via test-binary re-exec (see TestMain).

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/fompi"
)

// TestMain doubles as the child entry point for the two-process tests: the
// parent re-execs this test binary with FOMPI_DIST_CHILD set, and the child
// runs one rank of a distributed job instead of the test suite.
func TestMain(m *testing.M) {
	switch role := os.Getenv("FOMPI_DIST_CHILD"); role {
	case "":
	case "arena":
		arenaChild()
		return
	case "holder":
		holderChild()
		return
	default:
		distChild(role)
		return
	}
	os.Exit(m.Run())
}

const distChildTag = 7

// distChild hosts one rank of a 2-rank job, configured entirely through the
// NA_* environment (the same contract cmd/nalaunch uses).
func distChild(role string) {
	err := fompi.Run(fompi.Options{Ranks: 2}, func(p *fompi.Proc) {
		win := p.WinAllocate(1 << 16)
		defer win.Free()
		partner := 1 - p.Rank()
		req := win.NotifyInit(partner, distChildTag, 1)
		defer req.Free()

		// Round 1: echo the parent's ping back at offset 4096.
		req.Start()
		req.Wait()
		win.PutNotify(partner, 4096, win.Buffer()[:1024], distChildTag)
		win.Flush(partner)

		switch role {
		case "pingpong": // finish cleanly
		case "die": // crash without goodbye: no barrier, no Bye handshake
			os.Exit(3)
		default:
			fmt.Fprintf(os.Stderr, "unknown child role %q\n", role)
			os.Exit(2)
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "child: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// TestDistLoopbackQuickstart runs the quickstart exchange over real
// localhost sockets inside one process: bytes must arrive exactly and both
// ranks must finish without error.
func TestDistLoopbackQuickstart(t *testing.T) {
	const tag = 42
	errs := fompi.RunLocalCluster(fompi.Options{Ranks: 2}, func(p *fompi.Proc) {
		win := p.WinAllocate(1 << 16)
		defer win.Free()
		partner := 1 - p.Rank()
		req := win.NotifyInit(partner, tag, 1)
		defer req.Free()

		for size := 8; size <= 1<<12; size *= 8 {
			buf := make([]byte, size)
			for i := range buf {
				buf[i] = byte(size + i + p.Rank())
			}
			if p.Rank() == 0 {
				win.PutNotify(partner, 0, buf, tag)
				win.Flush(partner)
				req.Start()
				st := req.Wait()
				if st.Source != partner || st.Tag != tag {
					t.Errorf("notification <%d,%d>, want <%d,%d>", st.Source, st.Tag, partner, tag)
				}
				got := win.Buffer()[:size]
				for i := range got {
					if got[i] != byte(size+i+1) {
						t.Fatalf("size %d: echoed byte %d = %#x, want %#x", size, i, got[i], byte(size+i+1))
					}
				}
			} else {
				req.Start()
				req.Wait()
				got := win.Buffer()[:size]
				for i := range got {
					if got[i] != byte(size+i) {
						t.Fatalf("size %d: byte %d = %#x, want %#x", size, i, got[i], byte(size+i))
					}
				}
				// Echo with each byte bumped so rank 0 can tell the pong
				// from its own ping.
				for i := range got {
					got[i]++
				}
				win.PutNotify(partner, 0, got, tag)
				win.Flush(partner)
			}
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

// distSoakBody is a deterministic mixed-verb workload (PutNotify, Get,
// Accumulate) whose final window contents are engine-independent: put
// regions are disjoint per origin, accumulations are commutative, and
// barriers separate the phases. record receives each rank's final window
// snapshot.
func distSoakBody(record func(rank int, buf []byte)) func(p *fompi.Proc) {
	const (
		winSize   = 1 << 15
		dataOff   = 0       // rank r's put region in the partner: r*8KiB
		accumOff  = 1 << 14 // shared float64 accumulation area
		rounds    = 12
		chunkMax  = 4096
		notifyTag = 5
	)
	return func(p *fompi.Proc) {
		win := p.WinAllocate(winSize)
		defer win.Free()
		partner := 1 - p.Rank()
		req := win.NotifyInit(partner, notifyTag, 1)
		defer req.Free()

		for i := 0; i < rounds; i++ {
			size := 1 + (i*977+p.Rank()*131)%chunkMax
			data := make([]byte, size)
			for j := range data {
				data[j] = byte(i*31 + j*7 + p.Rank())
			}
			off := dataOff + p.Rank()*(1<<13)
			win.PutNotify(partner, off, data, notifyTag)
			win.Flush(partner)
			req.Start()
			req.Wait()
			p.Barrier()

			// Read our own chunk back from the partner and verify the wire
			// carried it bytes-exact.
			back := make([]byte, size)
			win.Get(partner, off, back)
			win.Flush(partner)
			if !bytes.Equal(back, data) {
				panic(fmt.Sprintf("rank %d round %d: get returned corrupted data", p.Rank(), i))
			}

			// Commutative float64 accumulation into the shared area.
			vals := make([]float64, 16)
			for j := range vals {
				vals[j] = float64(i*100+j) + float64(p.Rank())*0.5
			}
			win.Accumulate(partner, accumOff, vals, fompi.OpSum)
			win.Flush(partner)
			p.Barrier()
		}
		buf := append([]byte(nil), win.Buffer()...)
		record(p.Rank(), buf)
	}
}

// soakSnapshots runs the soak body on the Sim engine (tcp == false) or over
// TCP loopback and returns every rank's final window.
func soakSnapshots(t *testing.T, tcp bool) [][]byte {
	t.Helper()
	var mu sync.Mutex
	snaps := make([][]byte, 2)
	body := distSoakBody(func(rank int, buf []byte) {
		mu.Lock()
		snaps[rank] = buf
		mu.Unlock()
	})
	opts := fompi.Options{Ranks: 2}
	if !tcp {
		if err := fompi.Run(opts, body); err != nil {
			t.Fatalf("sim: %v", err)
		}
		return snaps
	}
	for r, err := range fompi.RunLocalCluster(opts, body) {
		if err != nil {
			t.Fatalf("tcp rank %d: %v", r, err)
		}
	}
	return snaps
}

// requireSameWindows fails unless every rank's window matches the Sim
// engine's byte for byte.
func requireSameWindows(t *testing.T, simSnaps, tcpSnaps [][]byte) {
	t.Helper()
	for r := range simSnaps {
		if simSnaps[r] == nil || tcpSnaps[r] == nil {
			t.Fatalf("rank %d: missing snapshot (sim %v, tcp %v)", r, simSnaps[r] != nil, tcpSnaps[r] != nil)
		}
		for i := range simSnaps[r] {
			if simSnaps[r][i] != tcpSnaps[r][i] {
				t.Fatalf("rank %d: window diverges from Sim at byte %d: sim %#x, tcp %#x",
					r, i, simSnaps[r][i], tcpSnaps[r][i])
			}
		}
	}
}

// TestDistSoakMatchesSim runs the soak on the Sim engine and again over
// TCP loopback, and requires the final window contents to match
// byte-for-byte on every rank.
func TestDistSoakMatchesSim(t *testing.T) {
	requireSameWindows(t, soakSnapshots(t, false), soakSnapshots(t, true))
}

// TestDistPairFIFOAcrossSizeClasses pins the ordering the matcher and the
// kv lanes rely on, now that no sequence numbers restore it: frames one
// goroutine sends to one peer arrive in program order whatever their size.
// Rank 0 issues back-to-back unflushed notified puts alternating 256 KiB
// and 8 B with tags 0..N-1; rank 1's wildcard request must match them in
// tag order, and when tag k matches, payload k must already be in the
// window.
func TestDistPairFIFOAcrossSizeClasses(t *testing.T) {
	const (
		n    = 24
		big  = 256 << 10
		slot = big // put k lands at k*slot
	)
	size := func(k int) int {
		if k%2 == 0 {
			return big
		}
		return 8
	}
	pattern := func(k int) []byte {
		b := make([]byte, size(k))
		for i := range b {
			b[i] = byte(k*37 + i*11 + 1)
		}
		return b
	}
	errs := fompi.RunLocalCluster(fompi.Options{Ranks: 2}, func(p *fompi.Proc) {
		win := p.WinAllocate(n * slot)
		defer win.Free()
		if p.Rank() == 0 {
			for k := 0; k < n; k++ {
				win.PutNotify(1, k*slot, pattern(k), k)
			}
			win.Flush(1)
			return
		}
		req := win.NotifyInit(0, fompi.AnyTag, 1)
		defer req.Free()
		for k := 0; k < n; k++ {
			req.Start()
			if st := req.Wait(); st.Tag != k {
				t.Fatalf("match %d carries tag %d: a %d-byte put overtook or fell behind its neighbours", k, st.Tag, size(st.Tag))
			}
			if got := win.Buffer()[k*slot : k*slot+size(k)]; !bytes.Equal(got, pattern(k)) {
				t.Fatalf("tag %d matched before its %d-byte payload was in the window", k, size(k))
			}
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

// TestTCPWaiterConsumesStreams is TestWaiterConsumesRings on TCP: a
// notified-put ping-pong over a 2-rank loopback cluster in bursts, each
// turn one rank putting burst notified puts into distinct slots
// (alternating small and 64 KiB payloads) with tags 1..burst, flushing,
// and waiting for the partner's echo burst. Ranks blocked in Wait or
// Flush drive their own streams, so some frames must be read on the
// waiting goroutine (Net.WaiterFrames > 0); the notifications must still
// match in the pair's FIFO order and every payload arrive intact.
func TestTCPWaiterConsumesStreams(t *testing.T) {
	const (
		rounds = 150
		burst  = 4
		slot   = 80 << 10
	)
	payload := func(rank, round, k int) []byte {
		size := 8 + k*13
		if k%2 == 1 {
			size = 64<<10 + k*97
		}
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(rank*59 + round*31 + k*17 + i*7)
		}
		return b
	}
	var waiterFrames [2]uint64
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
		waiterFrames[p.Rank()] = p.QueueStats().Net.WaiterFrames
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, n := range waiterFrames {
		if n == 0 {
			t.Errorf("rank %d: no frame was read by a waiting rank", r)
		}
	}
}

// TestDistPeerFailureUnblocks kills rank 1 (panic mid-run) and requires
// rank 0 — parked on a notification that will never arrive — to unblock
// with an error unwrapping to ErrPeerFailed instead of hanging.
func TestDistPeerFailureUnblocks(t *testing.T) {
	const tag = 9
	done := make(chan []error, 1)
	go func() {
		done <- fompi.RunLocalCluster(fompi.Options{Ranks: 2}, func(p *fompi.Proc) {
			// No collective teardown (Free) here: rank 1 panics, and a
			// deferred collective on the dying rank would block its unwind
			// on a peer that is still healthy. Job teardown reclaims the
			// window.
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

// spawnChild re-execs the test binary as rank 1 of a 2-rank job rooted at
// rootAddr, with the given child role.
func spawnChild(t *testing.T, role, rootAddr string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"FOMPI_DIST_CHILD="+role,
		fompi.EnvTransport+"=tcp",
		fompi.EnvRank+"=1",
		fompi.EnvNRanks+"=2",
		fompi.EnvRoot+"="+rootAddr,
	)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawning child: %v", err)
	}
	return cmd
}

// parentBody is rank 0 of the two-process exchange: ping, await the echo,
// verify it.
func parentBody(t *testing.T) func(p *fompi.Proc) {
	return func(p *fompi.Proc) {
		win := p.WinAllocate(1 << 16)
		defer win.Free()
		req := win.NotifyInit(1, distChildTag, 1)
		defer req.Free()

		ping := make([]byte, 1024)
		for i := range ping {
			ping[i] = byte(i * 3)
		}
		win.PutNotify(1, 0, ping, distChildTag)
		win.Flush(1)
		req.Start()
		req.Wait()
		echo := win.Buffer()[4096 : 4096+1024]
		// The child echoes the first KiB of its own window, where our ping
		// landed, so the bytes must round-trip exactly.
		if !bytes.Equal(echo, ping) {
			t.Errorf("two-process echo corrupted")
		}
	}
}

// TestTwoProcessCleanRun drives a real two-OS-process job: this test binary
// is rank 0, a re-exec'd copy is rank 1, rendezvous over a pre-bound
// localhost listener — the same flow cmd/nalaunch orchestrates.
func TestTwoProcessCleanRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cmd := spawnChild(t, "pingpong", ln.Addr().String())
	err = fompi.Run(fompi.Options{
		Ranks:     2,
		Transport: fompi.TransportTCP,
		Dist:      &fompi.DistConfig{Rank: 0, Root: ln.Addr().String(), Listener: ln},
	}, parentBody(t))
	if err != nil {
		t.Errorf("rank 0: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("child rank exited uncleanly: %v", err)
	}
}

// TestTwoProcessKillMidRun has the child rank exit abruptly (no Bye, no
// barrier) after round 1; the surviving parent must surface ErrPeerFailed
// within the failure-detection budget instead of hanging.
func TestTwoProcessKillMidRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cmd := spawnChild(t, "die", ln.Addr().String())
	defer cmd.Wait()
	runErr := fompi.Run(fompi.Options{
		Ranks:     2,
		Transport: fompi.TransportTCP,
		Dist:      &fompi.DistConfig{Rank: 0, Root: ln.Addr().String(), Listener: ln},
	}, func(p *fompi.Proc) {
		// No collective teardown: the child dies after round 1 and a
		// collective would only ever complete against the failure path.
		win := p.WinAllocate(1 << 16)
		req := win.NotifyInit(1, distChildTag, 1)
		ping := make([]byte, 1024)
		for i := range ping {
			ping[i] = byte(i * 3)
		}
		win.PutNotify(1, 0, ping, distChildTag)
		win.Flush(1)
		req.Start()
		req.Wait()
		// Round 2: the child is dead; this wait must fail, not hang.
		req.Start()
		req.Wait()
		t.Error("notification arrived from a dead process")
	})
	if !errors.Is(runErr, fompi.ErrPeerFailed) {
		t.Errorf("survivor error = %v, want errors.Is(..., ErrPeerFailed)", runErr)
	}
}
