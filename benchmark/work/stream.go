package work

import (
	"repro/benchmark/span"
	"repro/fompi"
)

const (
	streamSize  = 4096
	streamBatch = 32 // Flush every streamBatch puts
	tagStream   = 7
)

// Span names of stream4k_tcp: a batch is streamBatch puts and their Flush.
const (
	spBatch span.ID = iota
	spStreamPut
	spStreamFlush
	spAbsorb
)

var streamSpanNames = []string{"batch", "core.PutNotify", "Win.Flush", "Request.Wait"}

// storm sends count 4 KiB notified puts to the peer, flushing every
// streamBatch, while one counting request absorbs the peer's count puts.
// The puts of a batch go out of distinct buffers, so none is rewritten
// before the Flush that completes it. It returns the time of every batch
// (first put issued to Flush returned), and verifies the request's exact
// count and the final window contents. With a ring, blocks of batches
// alternate untraced and traced (see overhead).
func storm(j *job, p *fompi.Proc, win *fompi.Win, ring *span.Ring, bufs [][]byte, firstSeq uint64, count int) []int64 {
	rank, peer := p.Rank(), 1-p.Rank()
	block := abBlock(count / streamBatch)
	req := win.NotifyInit(peer, tagStream, count)
	defer req.Free()
	req.Start()
	batches := make([]int64, 0, count/streamBatch)
	var batchStart int64
	for i := 0; i < count; i++ {
		buf := bufs[i%streamBatch]
		fillStream(buf[:8], rank, firstSeq+uint64(i)) // stamps the sequence number only
		tr := abRing(ring, i/streamBatch, block)
		t0 := tr.Now()
		if i%streamBatch == 0 {
			batchStart = span.Clock()
			t0 = batchStart
		}
		op := uint32(i / streamBatch)
		win.PutNotify(peer, 0, buf, tagStream)
		t1 := tr.Now()
		tr.Add(op, spStreamPut, spBatch, t0, t1)
		if (i+1)%streamBatch == 0 {
			win.Flush(peer)
			t2 := span.Clock()
			tr.Add(op, spStreamFlush, spBatch, t1, t2)
			tr.Add(op, spBatch, span.None, batchStart, t2)
			batches = append(batches, t2-batchStart)
		}
	}
	win.Flush(peer)
	t0 := ring.Now()
	req.Wait()
	ring.Add(uint32(count/streamBatch), spAbsorb, span.None, t0, ring.Now())
	// Sequence numbers start at 1 and every put carries the next one, so
	// the window's matcher must have ingested exactly the last number.
	if got, want := win.MatchStats().Ingested, firstSeq+uint64(count)-1; got != want {
		j.failf(rank, 1, "counting request completed with %d notifications ingested, want exactly %d", got, want)
	}
	if err := checkStream(win.Buffer(), peer, firstSeq+uint64(count)-1); err != nil {
		j.failf(rank, 1, "final window: %v", err)
	}
	return batches
}

// Stream4kTCP has both ranks storm 4 KiB notified puts at each other over
// TCP: throughput, with both cores saturated.
func Stream4kTCP(cfg Config) (*Rep, error) {
	warm, count := cfg.n(3200, streamBatch), cfg.n(50000, streamBatch)
	rep := &Rep{Workload: "stream4k_tcp", Metrics: map[string]float64{}, SpanNames: streamSpanNames,
		Ops: map[string]int64{"warmup_puts_per_rank": int64(warm), "timed_puts_per_rank": int64(count)}}
	alloc := func(p *fompi.Proc) func() { return p.WinAllocate(streamSize).Free }
	j := newJob(engTCP, cfg)
	var batches [2][]int64
	err := j.launch(func(p *fompi.Proc) {
		win := p.WinAllocate(streamSize)
		defer win.Free()
		j.ready(p)
		bufs := make([][]byte, streamBatch)
		for i := range bufs {
			bufs[i] = make([]byte, streamSize)
			fillStream(bufs[i], p.Rank(), 0)
		}
		storm(j, p, win, nil, bufs, 1, warm)
		j.begin(p, win)
		batches[p.Rank()] = storm(j, p, win, j.rings[p.Rank()], bufs, 1+uint64(warm), count)
		j.end(p, win)
	})
	if err != nil {
		return nil, err
	}
	puts := 2 * float64(count)
	rep.Attempted = int64(2*(warm+count)) + 4 // every put is counted; count and window checked per storm
	if err := j.finish(rep, puts, puts, alloc); err != nil {
		return nil, err
	}
	// lat_p50_us here is the time to complete a batch remotely: 32 puts
	// issued and their Flush returned.
	latency(rep.Metrics, append(batches[0], batches[1]...))
	overhead(rep, batches[0], abBlock(count/streamBatch))
	secs := float64(j.m.wallNs) / 1e9
	rep.Metrics["ops_per_s"] = puts / secs
	rep.Metrics["goodput_MBps"] = puts * streamSize / secs / 1e6
	if st := rep.stats; st != nil {
		rep.Metrics["fabric.put_issue_ns"] = st[spStreamPut].DurP50
		rep.Metrics["rma.flush_wait_p50_us"] = st[spStreamFlush].DurP50 / 1e3
		rep.Metrics["core.wait_p50_us"] = st[spAbsorb].DurP50 / 1e3
	}
	return rep, nil
}
