package work

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	goruntime "runtime"
	"slices"
	"sync"

	"repro/benchmark/span"
	"repro/benchmark/stat"
	"repro/fompi"
	"repro/internal/netfab"
	"repro/internal/shmfab"
	"repro/internal/wire"
)

// Probes runs the short dedicated loops that call one layer's public API
// and nothing above it: wire encode/decode, a bare netfab and shmfab mesh
// echo, and the rma/core/runtime/exec calls no workload isolates. They
// belong to the traced pass; their numbers explain the workloads' and are
// never gated.
func Probes(cfg Config) (*Rep, error) {
	rep := &Rep{Workload: "probes", Metrics: map[string]float64{}, Ops: map[string]int64{}}
	m := rep.Metrics
	for _, probe := range []func(Config, *Rep) error{
		probeWire, probeNetfab, probeShmfab, probeClusters, probeLaunch, probeExec,
	} {
		if err := probe(cfg, rep); err != nil {
			return nil, err
		}
	}
	rep.Attempted = int64(len(m))
	return rep, nil
}

// p50 is the median of samples in nanoseconds.
func p50(samples []int64) float64 {
	slices.Sort(samples)
	return stat.Percentile(samples, 50)
}

// probeSizes are the payload sizes the wire and mesh probes run at.
var probeSizes = []struct {
	bytes int
	name  string
}{{8, "8B"}, {4096, "4KiB"}}

func putFrame(data []byte) *wire.Frame {
	return &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, RegionID: 1, OpID: 7,
		Imm: 0x00010063, ImmValid: true, WireSize: len(data), Data: data}
}

// probeWire times wire.AppendFrame and Framer.Fill/Next + wire.Decode over
// a pre-encoded buffer, per frame, and counts heap allocations per frame.
func probeWire(cfg Config, rep *Rep) error {
	const batch = 64
	rounds := cfg.n(4000, 1)
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	for _, sz := range probeSizes {
		size := sz.bytes
		fr := putFrame(make([]byte, size))
		var stream []byte
		t0 := span.Clock()
		for i := 0; i < rounds; i++ {
			stream = stream[:0]
			for k := 0; k < batch; k++ {
				stream = wire.AppendFrame(stream, fr)
			}
		}
		appendNs := float64(span.Clock()-t0) / float64(rounds*batch)

		framer := wire.NewFramer(len(stream))
		rd := bytes.NewReader(stream)
		var got wire.Frame
		t0 = span.Clock()
		for i := 0; i < rounds; i++ {
			rd.Reset(stream)
			if _, err := framer.Fill(rd); err != nil {
				return fmt.Errorf("wire probe: fill: %w", err)
			}
			for k := 0; k < batch; k++ {
				body, err := framer.Next()
				if err != nil || body == nil {
					return fmt.Errorf("wire probe: frame %d of %d: body %v err %v", k, batch, body != nil, err)
				}
				if err := wire.Decode(body, &got); err != nil {
					return fmt.Errorf("wire probe: decode: %w", err)
				}
			}
		}
		nextNs := float64(span.Clock()-t0) / float64(rounds*batch)
		if len(got.Data) != size || got.Imm != fr.Imm {
			rep.fail(1, "wire probe: decoded frame differs from the encoded one")
		}
		rep.Metrics["wire.append_ns_"+sz.name] = appendNs
		rep.Metrics["wire.frame_next_ns_"+sz.name] = nextNs
	}
	goruntime.ReadMemStats(&ms1)
	// Two sizes, each encoded once and decoded once per frame.
	rep.Metrics["wire.allocs_per_frame"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(4*rounds*batch)
	return nil
}

// meshLink is what the echo probe needs of a bare mesh endpoint; netfab
// and shmfab meshes both have it.
type meshLink interface {
	Send(target int, fr *wire.Frame) error
	Start(rx func(from int, fr *wire.Frame), peerDown func(rank int, err error))
	Close(graceful bool) error
}

// echo ping-pongs frames of each size between two bare mesh endpoints —
// no fabric above them — and reports the median half round trip per size
// and the median time of the 8-byte Send call itself. Endpoint 1 echoes
// from its rx callback; endpoint 0 checks the sequence number that comes
// back.
func echo(a, b meshLink, rounds int, rep *Rep, prefix string) error {
	var down error
	var downMu sync.Mutex
	onDown := func(rank int, err error) {
		downMu.Lock()
		down = errors.Join(down, fmt.Errorf("%s probe: peer %d down: %w", prefix, rank, err))
		downMu.Unlock()
	}
	back := make(chan uint64, 1)
	b.Start(func(_ int, fr *wire.Frame) {
		fr.Origin, fr.Target = fr.Target, fr.Origin // a put of b's own, so both directions take the same encoding
		_ = b.Send(0, fr)                           // a failed echo shows as peerDown or a missing reply
	}, onDown)
	a.Start(func(_ int, fr *wire.Frame) { back <- binary.LittleEndian.Uint64(fr.Data) }, onDown)
	defer func() {
		var wg sync.WaitGroup
		for _, m := range []meshLink{a, b} {
			wg.Add(1)
			go func() { defer wg.Done(); m.Close(true) }()
		}
		wg.Wait()
	}()
	seq := uint64(0)
	for _, sz := range probeSizes {
		fr := putFrame(make([]byte, sz.bytes))
		rtt := make([]int64, 0, rounds)
		call := make([]int64, 0, rounds)
		for i := 0; i < rounds+rounds/10; i++ {
			seq++
			binary.LittleEndian.PutUint64(fr.Data, seq)
			t0 := span.Clock()
			if err := a.Send(1, fr); err != nil {
				return fmt.Errorf("%s probe: send: %w", prefix, err)
			}
			t1 := span.Clock()
			got := <-back
			t2 := span.Clock()
			if got != seq {
				rep.fail(1, "%s probe: echo carries %d, want %d", prefix, got, seq)
			}
			if i >= rounds/10 { // the first tenth warms up
				rtt = append(rtt, (t2-t0)/2)
				call = append(call, t1-t0)
			}
		}
		rep.Metrics[prefix+".half_rtt_p50_us_"+sz.name] = p50(rtt) / 1e3
		if sz.bytes == 8 {
			rep.Metrics[prefix+".send_call_ns_8B"] = p50(call)
		}
	}
	downMu.Lock()
	defer downMu.Unlock()
	return down
}

func probeNetfab(cfg Config, rep *Rep) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("netfab probe: %w", err)
	}
	var peer *netfab.Mesh
	var peerErr error
	done := make(chan struct{})
	t0 := span.Clock()
	go func() {
		defer close(done)
		peer, peerErr = netfab.Bootstrap(netfab.Config{Self: 1, N: 2, RootAddr: ln.Addr().String()})
	}()
	root, err := netfab.Bootstrap(netfab.Config{Self: 0, N: 2, RootListener: ln})
	<-done
	rep.Metrics["netfab.bootstrap_ms"] = float64(span.Clock()-t0) / 1e6
	if err = errors.Join(err, peerErr); err != nil {
		return fmt.Errorf("netfab probe: bootstrap: %w", err)
	}
	return echo(root, peer, cfg.n(5000, 1), rep, "netfab")
}

func probeShmfab(cfg Config, rep *Rep) error {
	seg := shmfab.NewHeapSegment(0, 1)
	a, err := shmfab.Attach(shmfab.Config{Self: 0, N: 2, Segments: []*shmfab.Segment{nil, seg}})
	if err != nil {
		return fmt.Errorf("shmfab probe: %w", err)
	}
	b, err := shmfab.Attach(shmfab.Config{Self: 1, N: 2, Segments: []*shmfab.Segment{seg, nil}})
	if err != nil {
		return fmt.Errorf("shmfab probe: %w", err)
	}
	return echo(a, b, cfg.n(20000, 1), rep, "shmfab")
}

// probeClusters times, on a two-rank TCP job, the calls no workload
// isolates — an un-notified Put+Flush round, Win.Fence, window
// Allocate+Free, Request.Test on an armed unmatched request,
// NotifyInit+Start+Free — and Proc.Barrier on TCP and on shm.
func probeClusters(cfg Config, rep *Rep) error {
	m := rep.Metrics
	rounds := cfg.n(4000, 1)
	timed := func(p *fompi.Proc, n int, fn func()) []int64 {
		out := make([]int64, 0, n)
		for i := 0; i < n; i++ {
			t0 := span.Clock()
			fn()
			out = append(out, span.Clock()-t0)
		}
		p.Barrier()
		return out
	}
	for _, e := range []engine{engTCP, engShm} {
		err := e.launch(func(p *fompi.Proc) {
			barrier := timed(p, cfg.n(500, 1), p.Barrier)
			if p.Rank() == 0 {
				m["runtime.barrier_p50_us_"+e.String()] = p50(barrier) / 1e3
			}
			if e != engTCP {
				return
			}
			win := p.WinAllocate(64)
			defer win.Free()
			peer := 1 - p.Rank()
			buf := make([]byte, 8)
			var putFlush []int64
			if p.Rank() == 0 {
				putFlush = timed(p, rounds, func() { win.Put(peer, 0, buf); win.Flush(peer) })
			} else {
				p.Barrier()
			}
			fence := timed(p, rounds/2, win.Fence)
			alloc := timed(p, cfg.n(200, 1), func() { p.WinAllocate(4096).Free() })

			req := win.NotifyInit(peer, 5, 1)
			req.Start()
			n := 100 * rounds
			t0 := span.Clock()
			for i := 0; i < n; i++ {
				if req.Test() && p.Rank() == 0 { // rep is rank 0's to write
					rep.fail(1, "core probe: an unmatched request tested complete")
				}
			}
			testMiss := float64(span.Clock()-t0) / float64(n)
			req.Free()
			n = 10 * rounds
			t0 = span.Clock()
			for i := 0; i < n; i++ {
				r := win.NotifyInit(peer, 6, 1)
				r.Start()
				r.Free()
			}
			initStartFree := float64(span.Clock()-t0) / float64(n)
			if p.Rank() == 0 {
				m["rma.put_flush_p50_us_8B"] = p50(putFlush) / 1e3
				m["rma.fence_p50_us"] = p50(fence) / 1e3
				m["rma.win_alloc_us"] = p50(alloc) / 1e3
				m["core.test_miss_ns"] = testMiss
				m["core.init_start_free_ns"] = initStartFree
			}
		})
		if err != nil {
			return fmt.Errorf("%v cluster probe: %w", e, err)
		}
	}
	return nil
}

// probeLaunch times empty jobs on each engine: launch call until the body
// has been entered on all ranks, and last body return until the launch call
// returns (which includes the engines' finalize barrier and goodbye).
func probeLaunch(cfg Config, rep *Rep) error {
	const launchCycles = 15
	for _, e := range []engine{engTCP, engShm, engReal} {
		var launch, teardown []int64
		for i := 0; i < launchCycles; i++ {
			var in, out [2]int64
			t0 := span.Clock()
			err := e.launch(func(p *fompi.Proc) {
				in[p.Rank()] = span.Clock()
				p.Barrier()
				out[p.Rank()] = span.Clock()
			})
			t1 := span.Clock()
			if err != nil {
				return fmt.Errorf("%v launch probe: %w", e, err)
			}
			launch = append(launch, max(in[0], in[1])-t0)
			teardown = append(teardown, t1-max(out[0], out[1]))
		}
		rep.Metrics["runtime.launch_ms_"+e.String()] = p50(launch) / 1e6
		if e == engTCP {
			rep.Metrics["runtime.teardown_ms_tcp"] = p50(teardown) / 1e6
		}
	}
	return nil
}

// probeExec prices the two engines no link probe reaches: the Sim kernel's
// wall time per simulated 8-byte ping-pong round, and Proc.Yield with
// nothing pending on the Real engine (the relax() spin-then-sleep ramp).
func probeExec(cfg Config, rep *Rep) error {
	rounds := cfg.n(20000, 1)
	j := newJob(engReal, Config{})
	t0 := span.Clock()
	err := fompi.Run(fompi.Options{Ranks: 2}, func(p *fompi.Proc) {
		win := p.WinAllocate(8)
		defer win.Free()
		pingPong(j, p, win, nil, 8, 1, rounds, nil)
	})
	if err != nil {
		return fmt.Errorf("sim ping-pong probe: %w", err)
	}
	rep.Metrics["exec.sim_pp_wall_ns_per_round"] = float64(span.Clock()-t0) / float64(rounds)
	rep.Failed += j.bad[0] + j.bad[1]

	var yields []int64
	err = fompi.Run(fompi.Options{Ranks: 2, Real: true}, func(p *fompi.Proc) {
		if p.Rank() != 0 {
			return
		}
		yields = make([]int64, 0, cfg.n(2000, 1))
		for i := 0; i < cap(yields); i++ {
			t0 := span.Clock()
			p.Yield()
			yields = append(yields, span.Clock()-t0)
		}
	})
	if err != nil {
		return fmt.Errorf("real yield probe: %w", err)
	}
	rep.Metrics["exec.real_yield_ns"] = p50(yields)
	return nil
}
