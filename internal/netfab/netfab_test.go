//go:build linux

package netfab

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// tcpMeshes bootstraps an n-rank mesh over real localhost TCP.
func tcpMeshes(tb testing.TB, n int) []*Mesh {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	meshes := make([]*Mesh, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := Config{Self: r, N: n, RootAddr: ln.Addr().String(), DialTimeout: 5 * time.Second}
			if r == 0 {
				cfg.RootListener = ln
			}
			meshes[r], errs[r] = Bootstrap(cfg)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			tb.Fatalf("rank %d bootstrap: %v", r, err)
		}
	}
	return meshes
}

// loopback builds an n-rank mesh with Loopback.
func loopback(tb testing.TB, n int) []*Mesh {
	tb.Helper()
	meshes, err := Loopback(n)
	if err != nil {
		tb.Fatal(err)
	}
	return meshes
}

// closeAll closes meshes gracefully and concurrently: each graceful Close
// waits for its peers' goodbyes, which one after another means waiting out
// the deadline.
func closeAll(meshes []*Mesh) {
	var wg sync.WaitGroup
	for _, m := range meshes {
		wg.Add(1)
		go func() { defer wg.Done(); m.Close(true) }()
	}
	wg.Wait()
}

// Bootstrap a 3-rank mesh over localhost TCP, exchange frames every
// direction, and shut down cleanly: no peerDown may fire.
func TestBootstrapAndExchange(t *testing.T) {
	const n = 3
	meshes := tcpMeshes(t, n)

	type rxKey struct{ at, from int }
	var mu sync.Mutex
	got := make(map[rxKey][]byte)
	downs := 0
	for r := 0; r < n; r++ {
		m := meshes[r]
		m.Start(func(from int, fr *wire.Frame) {
			mu.Lock()
			got[rxKey{at: m.Self(), from: from}] = append([]byte(nil), fr.Data...)
			mu.Unlock()
		}, func(rank int, err error) {
			mu.Lock()
			downs++
			mu.Unlock()
			t.Errorf("unexpected peerDown at rank %d for rank %d: %v", m.Self(), rank, err)
		})
	}

	// The receive side must be one poller goroutine regardless of the
	// number of peers — not one blocked reader per stream.
	if runtime.GOOS == "linux" {
		for r, m := range meshes {
			if got := m.RxGoroutines(); got != 1 {
				t.Errorf("rank %d: rx goroutines = %d, want 1 (single poller over %d peers)", r, got, n-1)
			}
		}
	}

	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			fr := &wire.Frame{Kind: wire.KindPut, Origin: src, Target: dst,
				Data: []byte(fmt.Sprintf("%d->%d", src, dst))}
			if err := meshes[src].Send(dst, fr); err != nil {
				t.Fatalf("send %d->%d: %v", src, dst, err)
			}
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		done := len(got) == n*(n-1)
		mu.Unlock()
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			want := fmt.Sprintf("%d->%d", src, dst)
			if string(got[rxKey{at: dst, from: src}]) != want {
				t.Errorf("rank %d missing/garbled frame from %d: got %q want %q",
					dst, src, got[rxKey{at: dst, from: src}], want)
			}
		}
	}

	var closeWG sync.WaitGroup
	for _, m := range meshes {
		closeWG.Add(1)
		go func() { defer closeWG.Done(); m.Close(true) }()
	}
	closeWG.Wait()
	mu.Lock()
	defer mu.Unlock()
	if downs != 0 {
		t.Fatalf("clean shutdown reported %d peer failures", downs)
	}
	st := meshes[0].ReadStats()
	if st.FramesSent == 0 || st.FramesRecv == 0 || st.BytesSent == 0 {
		t.Errorf("stats not counted: %+v", st)
	}
}

// A socket that dies without a Bye must surface as peerDown; a clean Close
// must not.
func TestAbruptLossIsPeerDown(t *testing.T) {
	meshes := loopback(t, 2)
	down := make(chan int, 2)
	meshes[0].Start(func(int, *wire.Frame) {}, func(rank int, err error) { down <- rank })
	meshes[1].Start(func(int, *wire.Frame) {}, func(rank int, err error) { down <- rank })

	// Rank 1 vanishes without saying goodbye.
	meshes[1].abruptClose()
	select {
	case r := <-down:
		if r != 1 {
			t.Fatalf("peerDown for rank %d, want 1", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abrupt connection loss never reported")
	}

	if err := meshes[0].Send(1, &wire.Frame{Kind: wire.KindAck, Origin: 0, Target: 1}); err == nil {
		t.Fatal("send on a dead stream succeeded")
	}
	meshes[0].Close(false)
	if err := meshes[0].Send(1, &wire.Frame{Kind: wire.KindAck}); !errors.Is(err, ErrMeshClosed) {
		t.Fatalf("send after close: %v, want ErrMeshClosed", err)
	}
}

// Bye then close is clean on both sides.
func TestGoodbyeIsClean(t *testing.T) {
	meshes := loopback(t, 2)
	var mu sync.Mutex
	var downs []int
	for _, m := range meshes {
		m.Start(func(int, *wire.Frame) {}, func(rank int, err error) {
			mu.Lock()
			downs = append(downs, rank)
			mu.Unlock()
		})
	}
	var wg sync.WaitGroup
	for _, m := range meshes {
		wg.Add(1)
		go func() { defer wg.Done(); m.Close(true) }()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(downs) != 0 {
		t.Fatalf("clean goodbye reported failures: %v", downs)
	}
}

// Both shutdown paths must release every data-plane goroutine: readers
// (or the poller), writers, and nothing else may linger. The abrupt path
// used to leak the writer goroutines — quit was only closed by Close —
// so a crashed-rank simulation left one parked writer per peer behind.
func TestShutdownReleasesGoroutines(t *testing.T) {
	settled := func(base int) bool {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= base {
				return true
			}
			time.Sleep(5 * time.Millisecond)
		}
		return false
	}
	base := runtime.NumGoroutine()

	meshes := loopback(t, 3)
	for _, m := range meshes {
		m.Start(func(int, *wire.Frame) {}, func(int, error) {})
	}
	if err := meshes[0].Send(1, &wire.Frame{Kind: wire.KindAck, Origin: 0, Target: 1}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, m := range meshes {
		wg.Add(1)
		go func() { defer wg.Done(); m.Close(true) }()
	}
	wg.Wait()
	if !settled(base) {
		t.Fatalf("graceful close leaked goroutines: %d running, baseline %d", runtime.NumGoroutine(), base)
	}

	pair := loopback(t, 2)
	for _, m := range pair {
		m.Start(func(int, *wire.Frame) {}, func(int, error) {})
	}
	pair[0].abruptClose()
	pair[1].abruptClose()
	if !settled(base) {
		t.Fatalf("abrupt close leaked goroutines: %d running, baseline %d", runtime.NumGoroutine(), base)
	}
}

// TestStartedMeshRunsTwoGoroutines: a started mesh runs the poller and the
// beat loop, whatever the job size. Per-peer writers or readers would make
// the count grow with N.
func TestStartedMeshRunsTwoGoroutines(t *testing.T) {
	// Goroutines the package's own code starts, as their stacks name it.
	meshGoroutines := func() int {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		return strings.Count(string(buf), "created by repro/internal/netfab.(*")
	}
	for _, n := range []int{2, 5} {
		meshes := loopback(t, n)
		before := meshGoroutines()
		for _, m := range meshes {
			m.Start(func(int, *wire.Frame) {}, func(int, error) {})
		}
		started := meshGoroutines() - before
		closeAll(meshes)
		if started != 2*n {
			t.Errorf("N = %d: %d started meshes run %d goroutines, want 2 each (poller and beat)", n, n, started)
		}
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	m := &Mesh{cfg: Config{Self: 0, N: 2}}
	err := m.checkHello(&wire.Frame{Kind: wire.KindHello, Origin: 1, Operand: 2,
		Compare: wire.Version + 1, Strs: []string{"127.0.0.1:1"}})
	if !errors.Is(err, wire.ErrVersion) {
		t.Fatalf("checkHello = %v, want ErrVersion", err)
	}
	err = m.checkHello(&wire.Frame{Kind: wire.KindHello, Origin: 1, Operand: 3,
		Compare: wire.Version, Strs: []string{"127.0.0.1:1"}})
	if err == nil {
		t.Fatal("checkHello accepted mismatched job size")
	}
}

// TestRegenerationOverKeptListener proves the recovery re-bootstrap
// contract end to end at the mesh layer: generation 0 forms over a kept
// root listener, every stream is torn down, and generation 1 forms over
// the SAME listener — with one rank presenting a Rejoin hello, the root
// stamping the new generation number, and every peer adopting it from the
// Roster broadcast (a respawned process that lost count must learn the
// current generation from the rendezvous, not from configuration). The
// new generation must then carry traffic on fresh streams.
func TestRegenerationOverKeptListener(t *testing.T) {
	const n = 3
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	root := ln.Addr().String()

	boot := func(gen int, rejoin map[int]bool) []*Mesh {
		t.Helper()
		meshes := make([]*Mesh, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cfg := Config{Self: r, N: n, RootAddr: root, DialTimeout: 5 * time.Second}
				if r == 0 {
					cfg.RootListener = ln
					cfg.KeepRootListener = true
					// Only the root is told the generation; peers pass 0
					// and must adopt the root's value from the Roster.
					cfg.Gen = gen
				}
				cfg.Rejoin = rejoin[r]
				meshes[r], errs[r] = Bootstrap(cfg)
			}()
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("gen %d rank %d bootstrap: %v", gen, r, err)
			}
		}
		return meshes
	}
	closeAll := func(meshes []*Mesh) {
		var wg sync.WaitGroup
		for _, m := range meshes {
			wg.Add(1)
			go func() { defer wg.Done(); m.Close(true) }()
		}
		wg.Wait()
	}

	gen0 := boot(0, nil)
	for r, m := range gen0 {
		if m.Gen() != 0 {
			t.Errorf("gen 0: rank %d reports generation %d", r, m.Gen())
		}
		if len(m.Rejoined()) != 0 {
			t.Errorf("gen 0: rank %d admitted rejoins %v on a first bootstrap", r, m.Rejoined())
		}
	}
	for _, m := range gen0 {
		m.Start(func(int, *wire.Frame) {}, func(int, error) {})
	}
	closeAll(gen0)

	// Rank 2 "died" and comes back: same rendezvous point, Rejoin hello.
	gen1 := boot(1, map[int]bool{2: true})
	for r, m := range gen1 {
		if m.Gen() != 1 {
			t.Errorf("gen 1: rank %d adopted generation %d, want the root's 1", r, m.Gen())
		}
	}
	if rj := gen1[0].Rejoined(); len(rj) != 1 || rj[0] != 2 {
		t.Errorf("root admitted rejoined ranks %v, want [2]", rj)
	}
	if rj := gen1[1].Rejoined(); len(rj) != 0 {
		t.Errorf("non-root rank 1 reports rejoins %v, want none", rj)
	}

	// The regenerated mesh must be live: a frame from the rejoined rank
	// reaches the root on the new streams.
	got := make(chan []byte, 1)
	for _, m := range gen1 {
		self := m.Self()
		m.Start(func(from int, fr *wire.Frame) {
			if self == 0 && from == 2 {
				select {
				case got <- append([]byte(nil), fr.Data...):
				default:
				}
			}
		}, func(int, error) {})
	}
	if err := gen1[2].Send(0, &wire.Frame{Kind: wire.KindPut, Origin: 2, Target: 0,
		Data: []byte("second life")}); err != nil {
		t.Fatalf("send on regenerated mesh: %v", err)
	}
	select {
	case data := <-got:
		if string(data) != "second life" {
			t.Errorf("regenerated mesh garbled the frame: %q", data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame never arrived on the regenerated mesh")
	}
	closeAll(gen1)
}
