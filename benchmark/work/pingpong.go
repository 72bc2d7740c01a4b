package work

import (
	"encoding/binary"

	"repro/benchmark/span"
	"repro/fompi"
)

// Span names of the ping-pong workloads. rt is one round trip at rank 0
// (one echo at rank 1); the others are the calls made inside it.
const (
	spRT span.ID = iota
	spPut
	spFlush
	spStart
	spWait
	spBulk // hol64_tcp: polling and re-issuing the bulk RPuts
)

var ppSpanNames = []string{"rt", "core.PutNotify", "Win.Flush", "Request.Start", "Request.Wait", "Win.RPut/OpHandle.Done"}

const tagPP = 99

// pingPong runs the paper's Listing 1 between ranks 0 and 1: rounds closed
// loop round trips of a size-byte notified put, one outstanding. The first
// 8 payload bytes carry the round's sequence number, which each side
// checks against its window bytes after Wait. Rank 0 returns the
// round-trip time of every round in nanoseconds; before runs at rank 0
// ahead of each round, outside the timed interval. With a ring, blocks of
// rounds alternate untraced and traced (see overhead).
func pingPong(j *job, p *fompi.Proc, win *fompi.Win, ring *span.Ring, size, firstSeq, rounds int, before func(op uint32)) []int64 {
	rank, peer := p.Rank(), 1-p.Rank()
	block := abBlock(rounds)
	req := win.NotifyInit(peer, tagPP, 1)
	defer req.Free()
	payload := make([]byte, size)
	var samples []int64
	if rank == 0 {
		samples = make([]int64, 0, rounds)
	}
	for i := 0; i < rounds; i++ {
		seq := uint64(firstSeq + i)
		op := uint32(seq)
		tr := abRing(ring, i, block)
		if rank == 0 {
			if before != nil {
				before(op)
			}
			binary.LittleEndian.PutUint64(payload, seq)
			t0 := span.Clock()
			win.PutNotify(peer, 0, payload, tagPP)
			t1 := tr.Now()
			win.Flush(peer)
			t2 := tr.Now()
			req.Start()
			t3 := tr.Now()
			req.Wait()
			t4 := span.Clock()
			j.checkSeq(rank, win, seq)
			tr.Add(op, spPut, spRT, t0, t1)
			tr.Add(op, spFlush, spRT, t1, t2)
			tr.Add(op, spStart, spRT, t2, t3)
			tr.Add(op, spWait, spRT, t3, t4)
			tr.Add(op, spRT, span.None, t0, t4)
			samples = append(samples, t4-t0)
		} else {
			t0 := tr.Now()
			req.Start()
			t1 := tr.Now()
			req.Wait()
			t2 := tr.Now()
			j.checkSeq(rank, win, seq) // before the reply can trigger the next round's put
			copy(payload, win.Buffer()[:size])
			win.PutNotify(peer, 0, payload, tagPP)
			t3 := tr.Now()
			win.Flush(peer)
			t4 := tr.Now()
			tr.Add(op, spStart, spRT, t0, t1)
			tr.Add(op, spWait, spRT, t1, t2)
			tr.Add(op, spPut, spRT, t2, t3)
			tr.Add(op, spFlush, spRT, t3, t4)
			tr.Add(op, spRT, span.None, t0, t4)
		}
	}
	return samples
}

// checkSeq verifies, after a Wait, that the window bytes the notification
// published carry the round's sequence number.
func (j *job) checkSeq(rank int, win *fompi.Win, seq uint64) {
	if err := checkSeq(win.Buffer(), seq); err != nil {
		j.failf(rank, 1, "%v", err)
	}
}

// pp8 is the body shared by pp8_tcp and pp8_shm.
func pp8(cfg Config, name string, e engine, fullRounds int) (*Rep, error) {
	const size = 8
	warm, rounds := cfg.n(2000, 1), cfg.n(fullRounds, 1)
	rep := &Rep{Workload: name, Metrics: map[string]float64{}, SpanNames: ppSpanNames,
		Ops: map[string]int64{"warmup_round_trips": int64(warm), "timed_round_trips": int64(rounds)}}
	alloc := func(p *fompi.Proc) func() { return p.WinAllocate(size).Free }
	j := newJob(e, cfg)
	var samples []int64
	err := j.launch(func(p *fompi.Proc) {
		win := p.WinAllocate(size)
		defer win.Free()
		j.ready(p)
		pingPong(j, p, win, nil, size, 1, warm, nil)
		j.begin(p, win)
		s := pingPong(j, p, win, j.rings[p.Rank()], size, 1+warm, rounds, nil)
		j.end(p, win)
		if p.Rank() == 0 {
			samples = s
		}
	})
	if err != nil {
		return nil, err
	}
	rep.Attempted = int64(2 * (warm + rounds)) // every round is checked at both ranks
	if err := j.finish(rep, float64(rounds), 2*float64(rounds), alloc); err != nil {
		return nil, err
	}
	overhead(rep, samples, abBlock(rounds))
	halve(samples)
	latency(rep.Metrics, samples)
	secs := float64(j.m.wallNs) / 1e9
	rep.Metrics["ops_per_s"] = float64(rounds) / secs
	rep.Metrics["goodput_MBps"] = 2 * size * float64(rounds) / secs / 1e6
	ppSpanMetrics(rep)
	return rep, nil
}

// halve turns round-trip times into half round trips.
func halve(samples []int64) {
	for i := range samples {
		samples[i] /= 2
	}
}

// ppSpanMetrics derives the span-type layer metrics of a traced ping-pong
// from rank 0's spans.
func ppSpanMetrics(rep *Rep) {
	if st := rep.stats; st != nil {
		rep.Metrics["fabric.put_issue_ns"] = st[spPut].DurP50
		rep.Metrics["rma.flush_wait_p50_us"] = st[spFlush].DurP50 / 1e3
		rep.Metrics["core.wait_p50_us"] = st[spWait].DurP50 / 1e3
	}
}

// PP8TCP is the 8-byte ping-pong over loopback TCP.
func PP8TCP(cfg Config) (*Rep, error) { return pp8(cfg, "pp8_tcp", engTCP, 50000) }

// PP8Shm is the 8-byte ping-pong over the shared-memory segment rings.
func PP8Shm(cfg Config) (*Rep, error) { return pp8(cfg, "pp8_shm", engShm, 25000) }

const (
	holSmall = 64
	holBulk  = 256 << 10
	holSlots = 2
)

// HOL64TCP ping-pongs 64-byte notified puts while rank 0 keeps two 256 KiB
// rendezvous RPuts outstanding to the same peer. Each slot alternates
// between two prefilled source buffers, so no buffer changes while its put
// is in flight, and rank 1 checks its bulk window against the pattern of
// the last buffer put to each slot.
func HOL64TCP(cfg Config) (*Rep, error) {
	warm, rounds := cfg.n(200, 1), max(cfg.n(1000, 1), 32) // a median needs at least 20 samples
	rep := &Rep{Workload: "hol64_tcp", Metrics: map[string]float64{}, SpanNames: ppSpanNames,
		Ops: map[string]int64{"warmup_round_trips": int64(warm), "timed_round_trips": int64(rounds)}}
	type wins struct{ small, bulk *fompi.Win }
	mk := func(p *fompi.Proc) wins {
		return wins{p.WinAllocate(holSmall), p.WinAllocate(holSlots * holBulk)}
	}
	alloc := func(p *fompi.Proc) func() {
		w := mk(p)
		return func() { w.bulk.Free(); w.small.Free() }
	}
	j := newJob(engTCP, cfg)
	var samples []int64
	var bulkDone int64 // RPuts completed inside the timed phase; rank 0 sets it
	err := j.launch(func(p *fompi.Proc) {
		w := mk(p)
		defer w.small.Free()
		defer w.bulk.Free()
		j.ready(p)

		var pump func(op uint32)
		var pumpRing *span.Ring // nil until the timed phase
		var completed int64
		var gen [holSlots]uint64 // puts issued per slot
		var handle [holSlots]*fompi.OpHandle
		var src [holSlots][2][]byte
		if p.Rank() == 0 {
			for s := range src {
				for par := range src[s] {
					src[s][par] = make([]byte, holBulk)
					fillBulk(src[s][par], s, par)
				}
			}
			pump = func(op uint32) {
				tr := pumpRing
				t0 := tr.Now()
				for s := range handle {
					if handle[s] != nil && !handle[s].Done() {
						continue
					}
					if handle[s] != nil {
						completed++
					}
					handle[s] = w.bulk.RPut(1, s*holBulk, src[s][gen[s]%2])
					gen[s]++
				}
				tr.Add(op, spBulk, span.None, t0, tr.Now())
			}
		}
		pingPong(j, p, w.small, nil, holSmall, 1, warm, pump)
		j.begin(p, w.small, w.bulk)
		completed, pumpRing = 0, j.rings[0]
		s := pingPong(j, p, w.small, j.rings[p.Rank()], holSmall, 1+warm, rounds, pump)
		done := completed
		j.end(p, w.small, w.bulk)
		if p.Rank() == 0 {
			samples, bulkDone = s, done
			for _, h := range handle {
				h.Wait()
			}
			w.bulk.Flush(1)
			// Tell rank 1 which buffer landed last in each slot.
			last := make([]byte, holSmall)
			for s := range gen {
				binary.LittleEndian.PutUint64(last[8*s:], gen[s])
			}
			w.small.PutNotify(1, 0, last, tagPP+1)
			w.small.Flush(1)
		} else {
			req := w.small.NotifyInit(0, tagPP+1, 1)
			req.Start()
			req.Wait()
			req.Free()
			for s := 0; s < holSlots; s++ {
				g := binary.LittleEndian.Uint64(w.small.Buffer()[8*s:])
				if err := checkBulk(w.bulk.Buffer()[s*holBulk:(s+1)*holBulk], s, int((g+1)%2)); err != nil {
					j.failf(1, 1, "bulk slot %d after %d puts: %v", s, g, err)
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	rep.Attempted = int64(2*(warm+rounds)) + holSlots
	rep.Ops["bulk_puts_completed"] = bulkDone
	if err := j.finish(rep, float64(rounds), 2*float64(rounds), alloc); err != nil {
		return nil, err
	}
	overhead(rep, samples, abBlock(rounds))
	halve(samples)
	latency(rep.Metrics, samples)
	secs := float64(j.m.wallNs) / 1e9
	rep.Metrics["ops_per_s"] = float64(rounds) / secs
	rep.Metrics["goodput_MBps"] = float64(bulkDone) * holBulk / secs / 1e6
	ppSpanMetrics(rep)
	return rep, nil
}
