package work

import (
	"fmt"
	"slices"

	"repro/benchmark/span"
	"repro/benchmark/stat"
	"repro/fompi"
	"repro/internal/kv"
)

const (
	kvKeysPerRank = 128 // 256 keys in all: each written by one rank, owned by the other
	kvWindow      = 64  // closed-loop in-flight bound per rank
)

// kvPhase is one phase of a KV workload: Ops operations per rank, issued
// closed loop (Rate 0, kvWindow in flight) or open loop at Rate operations
// per second summed over both ranks. Rates are constants of the benchmark,
// never derived from a run.
type kvPhase struct {
	Ops  int
	Rate float64
}

// Span names of the KV workloads. tick is one turn of the generator loop;
// its self time is the completion polling the loop does itself.
const (
	spTick span.ID = iota
	spGetIssue
	spPutIssue
	spDrain
	spYield
	spOpen
)

var kvSpanNames = []string{"tick", "kv.GetAsync", "kv.PutAsync", "kv.DrainAcks", "Proc.Yield", "kv.Open"}

type kvGet struct {
	fut   *kv.GetFuture
	key   int
	lo    uint64 // version acked when the get was issued
	sched int64
	n     int // position in the phase's op sequence
}

type kvPut struct {
	seq   uint64
	key   int
	ver   uint64
	sched int64
	n     int
}

// kvClient is one rank's load generator and verifier. Every key it uses is
// owned by the peer, it is the key's only writer, and versions grow by one
// per put, so each get can be checked against [acked, issued].
type kvClient struct {
	j      *job
	p      *fompi.Proc
	s      *kv.Store
	ring   *span.Ring // nil: tracing off
	tr     *span.Ring // ring or nil, by the block of the op being issued
	keys   [][]byte
	issued []uint64
	acked  []uint64
	val    []byte
	gets   []kvGet
	puts   []kvPut // in sequence order; acks arrive in the same order
	tick   uint32
}

// newKVClient picks kvKeysPerRank keys owned by the peer and loads version
// 1 of each. A put into a full bucket is dropped by the store, so keys that
// do not read back are replaced by the next candidate name until all fit:
// the workload is built so that no operation fails.
func newKVClient(j *job, p *fompi.Proc, s *kv.Store, seed int64) *kvClient {
	c := &kvClient{j: j, p: p, s: s, ring: j.rings[p.Rank()], val: make([]byte, kvValSize),
		issued: make([]uint64, kvKeysPerRank), acked: make([]uint64, kvKeysPerRank)}
	next := 0
	candidate := func() []byte {
		for {
			k := kvKeyName(seed, p.Rank(), next)
			next++
			if s.Owner(k) != p.Rank() {
				return k
			}
		}
	}
	for len(c.keys) < kvKeysPerRank {
		c.keys = append(c.keys, candidate())
	}
	for missing := true; missing; {
		for i, k := range c.keys {
			if c.issued[i] == 0 {
				kvValue(c.val, i, 1)
				s.Put(k, c.val)
				c.issued[i], c.acked[i] = 1, 1
			}
		}
		missing = false
		for i, v := range s.MGet(c.keys) {
			if v == nil {
				c.keys[i], c.issued[i], missing = candidate(), 0, true
			}
		}
	}
	return c
}

// run issues ops and polls them to completion. interval is the spacing of
// scheduled arrivals in nanoseconds; 0 runs closed loop with kvWindow in
// flight. It returns per-op latencies of gets and puts — from scheduled
// arrival in the open loop, from issue in the closed loop — and how late
// each op was issued against its schedule; byOp holds every op's latency
// at its position in ops. With a ring, blocks of ops alternate untraced and
// traced (see overhead).
func (c *kvClient) run(ops []kvOp, interval int64) (getLat, putLat, late, byOp []int64) {
	block := abBlock(len(ops))
	byOp = make([]int64, len(ops))
	getLat = make([]int64, 0, len(ops))
	putLat = make([]int64, 0, len(ops)/3)
	late = make([]int64, 0, len(ops))
	owner := 1 - c.p.Rank()
	start := span.Clock()
	issued, putHead := 0, 0
	for issued < len(ops) || len(c.gets) > 0 || putHead < len(c.puts) {
		c.tick++
		c.tr = abRing(c.ring, min(issued, len(ops)-1), block)
		tick0 := c.tr.Now()
		for issued < len(ops) {
			now := span.Clock()
			sched := start + int64(issued)*interval
			if interval > 0 && sched > now {
				break
			}
			if interval == 0 {
				if len(c.gets)+len(c.puts)-putHead >= kvWindow {
					break
				}
				sched = now
			}
			late = append(late, now-sched)
			op := ops[issued]
			k := int(op.Key)
			if op.Read {
				fut := c.s.GetAsync(c.keys[k])
				c.tr.Add(c.tick, spGetIssue, spTick, now, c.tr.Now())
				c.gets = append(c.gets, kvGet{fut, k, c.acked[k], sched, issued})
			} else {
				c.issued[k]++
				kvValue(c.val, k, c.issued[k])
				_, seq := c.s.PutAsync(c.keys[k], c.val)
				c.tr.Add(c.tick, spPutIssue, spTick, now, c.tr.Now())
				c.puts = append(c.puts, kvPut{seq, k, c.issued[k], sched, issued})
			}
			issued++
		}
		t0 := c.tr.Now()
		c.s.DrainAcks()
		c.tr.Add(c.tick, spDrain, spTick, t0, c.tr.Now())

		now := span.Clock()
		n := 0
		for _, g := range c.gets {
			if !g.fut.Done() {
				c.gets[n] = g
				n++
				continue
			}
			val, ok := g.fut.Await()
			if !ok {
				c.j.failf(c.p.Rank(), 1, "get of key %d found nothing", g.key)
			} else if err := checkKVValue(val, g.key, g.lo, c.issued[g.key]); err != nil {
				c.j.failf(c.p.Rank(), 1, "get: %v", err)
			}
			getLat = append(getLat, now-g.sched)
			byOp[g.n] = now - g.sched
		}
		c.gets = c.gets[:n]
		for ; putHead < len(c.puts) && c.s.Acked(owner) > c.puts[putHead].seq; putHead++ {
			q := c.puts[putHead]
			c.acked[q.key] = q.ver
			putLat = append(putLat, now-q.sched)
			byOp[q.n] = now - q.sched
		}
		t0 = c.tr.Now()
		c.p.Yield()
		t1 := c.tr.Now()
		c.tr.Add(c.tick, spYield, spTick, t0, t1)
		c.tr.Add(c.tick, spTick, span.None, tick0, t1)
	}
	c.puts = c.puts[:0]
	return getLat, putLat, late, byOp
}

// readBack verifies, after Flush, that every key holds exactly the last
// version this rank issued.
func (c *kvClient) readBack() {
	for i, v := range c.s.MGet(c.keys) {
		if v == nil {
			c.j.failf(c.p.Rank(), 1, "read-back: key %d missing", i)
		} else if err := checkKVValue(v, i, c.issued[i], c.issued[i]); err != nil {
			c.j.failf(c.p.Rank(), 1, "read-back: %v", err)
		}
	}
}

// kvLoad is the body shared by kv_tcp and kv_real: phase A closed loop,
// phases B and C open loop at two fixed rates.
func kvLoad(cfg Config, name string, e engine, phases [3]kvPhase) (*Rep, error) {
	rep := &Rep{Workload: name, Metrics: map[string]float64{}, SpanNames: kvSpanNames, Ops: map[string]int64{}}
	for i := range phases {
		phases[i].Ops = cfg.n(phases[i].Ops, 1)
		rep.Ops[fmt.Sprintf("phase_%c_ops_per_rank", 'A'+i)] = int64(phases[i].Ops)
	}
	alloc := func(p *fompi.Proc) func() { return kv.Open(p, kv.Options{}).Close }
	j := newJob(e, cfg)
	type phaseOut struct{ get, put, late, byOp []int64 }
	var out [2][3]phaseOut
	var wall [3]int64
	var stats0, stats1 [2]kv.Stats
	var openNs [2]int64
	err := j.launch(func(p *fompi.Proc) {
		r := p.Rank()
		t0 := span.Clock()
		s := kv.Open(p, kv.Options{})
		openNs[r] = span.Clock() - t0
		j.rings[r].Add(0, spOpen, span.None, t0, t0+openNs[r])
		j.ready(p)
		c := newKVClient(j, p, s, cfg.Seed)
		p.Barrier()
		stats0[r] = s.Stats()
		for i, ph := range phases {
			ops := kvSchedule(cfg.Seed, r, i, kvKeysPerRank, ph.Ops)
			var interval int64
			if ph.Rate > 0 {
				interval = int64(2e9 / ph.Rate) // each rank generates half the aggregate rate
			}
			j.begin(p)
			o := &out[r][i]
			o.get, o.put, o.late, o.byOp = c.run(ops, interval)
			j.end(p)
			if r == 0 { // the meter is rank 0's
				wall[i] = j.m.wallNs
			}
		}
		s.Flush()
		p.Barrier()
		c.readBack()
		p.Barrier() // every apply and ack is done: the server-side counters are quiescent
		stats1[r] = s.Stats()
		s.Close()
	})
	if err != nil {
		return nil, err
	}

	var totalOps, totalPuts float64
	for i, ph := range phases {
		totalOps += 2 * float64(ph.Ops)
		totalPuts += float64(len(out[0][i].put) + len(out[1][i].put))
	}
	rep.Attempted = int64(totalOps) + 2*kvKeysPerRank
	if err := j.finish(rep, totalOps, totalPuts, alloc); err != nil {
		return nil, err
	}
	m := rep.Metrics

	// Store counters over the timed phases, both ranks.
	var ackWaits, fullDrops, badRecords uint64
	for r := range stats1 {
		ackWaits += stats1[r].AckWaits - stats0[r].AckWaits
		fullDrops += stats1[r].FullDrops - stats0[r].FullDrops
		badRecords += stats1[r].BadRecord - stats0[r].BadRecord
	}
	m["kv.ack_waits_per_kop"] = float64(ackWaits) / totalOps * 1e3
	m["kv.full_drops"] = float64(fullDrops)
	m["kv.bad_records"] = float64(badRecords)
	if lost := int64(fullDrops+badRecords) + int64(m["core.am_dropped"]); lost > 0 {
		rep.fail(lost, "%d puts dropped on a full bucket, %d bad records, %v active messages shed",
			fullDrops, badRecords, m["core.am_dropped"])
	}

	// Phase A: closed-loop throughput. Phase B: the latency headline.
	// Phase C: how close twice the rate is to the knee.
	both := func(i int, pick func(phaseOut) []int64) []int64 {
		return append(slices.Clone(pick(out[0][i])), pick(out[1][i])...)
	}
	all := func(o phaseOut) []int64 { return append(slices.Clone(o.get), o.put...) }
	p50us := func(xs []int64) float64 { return p50(xs) / 1e3 }
	m["ops_per_s"] = 2 * float64(phases[0].Ops) / (float64(wall[0]) / 1e9) // wall[] is cumulative; phase A is first
	m["goodput_MBps"] = m["ops_per_s"] * kvValSize / 1e6
	overhead(rep, out[0][1].byOp, abBlock(phases[1].Ops))
	latency(m, both(1, all))
	m["kv.get_p50_us"] = p50us(both(1, func(o phaseOut) []int64 { return o.get }))
	m["kv.put_p50_us"] = p50us(both(1, func(o phaseOut) []int64 { return o.put }))
	m["kv.lat_p50_us_2x"] = p50us(both(2, all))
	m["kv.open_ms"] = float64(max(openNs[0], openNs[1])) / 1e6

	late := append(both(1, func(o phaseOut) []int64 { return o.late }), both(2, func(o phaseOut) []int64 { return o.late })...)
	slices.Sort(late)
	m["gen.late_p99_us"] = stat.Percentile(late, 99) / 1e3
	m["gen.late_max_us"] = stat.Percentile(late, 100) / 1e3
	if m["gen.late_max_us"] > 50e3 {
		rep.Flags = append(rep.Flags, fmt.Sprintf("generator ran %.1f ms late at worst: open-loop latencies of this repetition are suspect", m["gen.late_max_us"]/1e3))
	}

	if st := rep.stats; st != nil {
		m["kv.get_issue_ns"] = st[spGetIssue].DurP50
		m["kv.put_issue_ns"] = st[spPutIssue].DurP50
		m["kv.drain_acks_ns"] = st[spDrain].DurP50
	}
	return rep, nil
}

// KVTCP is the KV service over loopback TCP. The open-loop rates are about
// 0.3x and 0.6x of the closed-loop rate measured on the 2-core reference box.
func KVTCP(cfg Config) (*Rep, error) {
	return kvLoad(cfg, "kv_tcp", engTCP, [3]kvPhase{{50000, 0}, {20000, 30e3}, {20000, 60e3}})
}

// KVReal is the same on the in-process Real engine.
func KVReal(cfg Config) (*Rep, error) {
	return kvLoad(cfg, "kv_real", engReal, [3]kvPhase{{100000, 0}, {50000, 100e3}, {50000, 200e3}})
}
