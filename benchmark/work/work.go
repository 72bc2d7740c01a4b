// Package work holds the benchmark's workloads and layer probes. Every
// workload runs one repetition inside the calling process, measures the
// layers from outside — by timing calls into their public functions and
// reading their public counters — verifies what the program produced, and
// returns a Rep. Repetition, medians and the traced pass are the caller's
// business (cmd/nabench).
package work

import (
	"errors"
	"fmt"
	"os"
	goruntime "runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"repro/benchmark/span"
	"repro/benchmark/stat"
	"repro/fompi"
	"repro/internal/fabric"
)

// Config parameterises one repetition.
type Config struct {
	// Seed drives every key and op sequence.
	Seed int64
	// Scale multiplies every op count: 1 is the full run, 0.01 the smoke
	// run. Rates of the open-loop phases are constants and do not scale.
	Scale float64
	// Trace turns the benchmark-side spans on.
	Trace bool
}

// n scales an op count, keeping it a positive multiple of unit.
func (c Config) n(full, unit int) int {
	v := int(float64(full)*c.Scale) / unit * unit
	return max(v, unit)
}

// Rep is the outcome of one repetition.
type Rep struct {
	Workload  string             `json:"workload"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Flags     []string           `json:"flags,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Ops       map[string]int64   `json:"ops"`

	// Spans of the traced pass, per rank, with their name table.
	SpanNames []string                  `json:"-"`
	Spans     [][]span.Rec              `json:"-"`
	stats     map[span.ID]span.NameStat // of rank 0's spans; nil when tracing was off
}

// fail counts n failed operations and keeps the first few reasons.
func (r *Rep) fail(n int64, format string, args ...any) {
	r.Failed += n
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// Workload is one named set of inputs.
type Workload struct {
	Name string
	Why  string
	// Reps is the default repetition count of a full run.
	Reps int
	// Latency says whether lat_p50_us is a per-op latency distribution
	// (and the workload gets a budget table).
	Latency bool
	// Gated says whether BENCHMARK.json lists the workload, so that the
	// acceptance driver holds its end-to-end metrics to their bounds. An
	// ungated workload is run, verified and reported all the same.
	Gated bool
	Run   func(Config) (*Rep, error)
}

// All lists the workloads in reporting order. Names are fixed: later
// issues cite them.
//
// kv_real is not gated: on the reference box the Real engine's relax()
// backoff sits on a knife edge — an idle time.Sleep returns after about
// 1.0 ms, and relaxResetGap, the gap that resets the backoff to spinning, is
// 1 ms — so for minutes at a time the workload runs in one of two modes
// (4.5 vs 2.5 us of CPU per op, 770 vs 630 us p50, 240 vs 200 kops/s) and
// flips between them with the box's timer latency. No bound the contract
// allows survives that; the README has the measurements.
var All = []Workload{
	{"pp8_tcp", "fixed per-message cost over TCP: wire, netfab, the reliable layer, matcher wake", 5, true, true, PP8TCP},
	{"pp8_shm", "same loop on shm rings: bypasses wire/netfab/reliable, control for TCP-side work", 15, true, true, PP8Shm},
	{"stream4k_tcp", "TCP layers used for throughput: per-frame CPU, acks and syscalls per op set the rate", 7, false, true, Stream4kTCP},
	{"hol64_tcp", "64 B round trips beside two outstanding 256 KiB rendezvous puts on one peer pair", 15, true, true, HOL64TCP},
	{"kv_tcp", "KV service path over TCP: AM dispatch, chained acks, credit window, closed and open loop", 5, true, true, KVTCP},
	{"kv_real", "same KV phases on the in-process Real engine: relax() scheduling and core AM, no link", 5, true, false, KVReal},
	{"sim_stencil", "deterministic single-threaded Sim run: prices the kernel handoff and shared fabric/core/rma path", 3, false, true, SimStencil},
}

// Find returns the named workload.
func Find(name string) (Workload, bool) {
	for _, w := range All {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Names lists the valid workload names.
func Names() []string {
	out := make([]string, len(All))
	for i, w := range All {
		out[i] = w.Name
	}
	return out
}

// engine selects how the two ranks of a wall-clock workload are hosted.
type engine int

const (
	engTCP  engine = iota // fompi.RunLocalCluster: real 127.0.0.1 sockets (host loopback, not a real link)
	engShm                // fompi.RunLocalShmCluster: heap segment rings
	engReal               // fompi.Run{Real}: in-process engine, one fabric shared by the ranks
)

func (e engine) String() string { return [...]string{"tcp", "shm", "real"}[e] }

// launch runs body on two ranks of the engine and joins the rank errors.
func (e engine) launch(body func(p *fompi.Proc)) error {
	opts := fompi.Options{Ranks: 2}
	switch e {
	case engTCP:
		return errors.Join(fompi.RunLocalCluster(opts, body)...)
	case engShm:
		return errors.Join(fompi.RunLocalShmCluster(opts, body)...)
	}
	opts.Real = true
	return fompi.Run(opts, body)
}

// setupCycles is how many launch-to-first-barrier set-ups one repetition
// times; setup_s is their median, the repetition's own set-up included. One
// set-up takes a few milliseconds and varies by a factor of three with
// scheduling, so it takes this many for the median to settle.
const setupCycles = 25

// medianSetup is setup_s: the median of own, the set-up time of the
// repetition's real job, and setupCycles-1 throwaway set-ups, each timed by
// cycle in seconds.
func medianSetup(own float64, cycle func() (float64, error)) (float64, error) {
	xs := []float64{own}
	for i := 1; i < setupCycles; i++ {
		x, err := cycle()
		if err != nil {
			return 0, fmt.Errorf("set-up cycle: %w", err)
		}
		xs = append(xs, x)
	}
	return stat.Median(xs), nil
}

// setupCycle times one throwaway set-up on e: launch call until every rank
// is past the first barrier with alloc's windows (and store) in place.
func setupCycle(e engine, alloc func(p *fompi.Proc) (free func())) (float64, error) {
	var past [2]int64
	t0 := span.Clock()
	err := e.launch(func(p *fompi.Proc) {
		free := alloc(p)
		p.Barrier()
		past[p.Rank()] = span.Clock()
		free()
	})
	return float64(max(past[0], past[1])-t0) / 1e9, err
}

// meter brackets the timed phases of a repetition and accumulates wall
// time, process CPU and allocator/GC activity over them. Only rank 0
// drives it, between barriers, so no rank is inside a timed loop while
// ReadMemStats stops the world.
type meter struct {
	wallNs         int64
	cpuUs          float64
	mallocs, bytes uint64
	gcCycles       uint32
	pauseNs        uint64
	goroutines     int
	t0             int64
	cpu0           float64
	ms0            goruntime.MemStats
}

func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

func (m *meter) start() {
	m.goroutines = max(m.goroutines, goruntime.NumGoroutine())
	goruntime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuMicros()
	m.t0 = span.Clock()
}

func (m *meter) stop() {
	m.wallNs += span.Clock() - m.t0
	m.cpuUs += cpuMicros() - m.cpu0
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	m.mallocs += ms.Mallocs - m.ms0.Mallocs
	m.bytes += ms.TotalAlloc - m.ms0.TotalAlloc
	m.gcCycles += ms.NumGC - m.ms0.NumGC
	m.pauseNs += ms.PauseTotalNs - m.ms0.PauseTotalNs
	m.goroutines = max(m.goroutines, goruntime.NumGoroutine())
}

// emit writes cpu_us_per_op and the proc.* metrics for ops operations.
func (m *meter) emit(out map[string]float64, ops float64) {
	out["cpu_us_per_op"] = m.cpuUs / ops
	out["proc.allocs_per_op"] = float64(m.mallocs) / ops
	out["proc.alloc_bytes_per_op"] = float64(m.bytes) / ops
	out["proc.gc_cycles"] = float64(m.gcCycles)
	out["proc.gc_pause_total_ms"] = float64(m.pauseNs) / 1e6
	out["proc.goroutines_peak"] = float64(m.goroutines)
}

// rssPeakMB reads VmHWM, the process's peak resident set.
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// The layers' public counters the benchmark reports, as indices into counts.
const (
	cFramesSent = iota // QueueStats().Net
	cFramesRecv
	cTxFlushes
	cRxReads
	cWireBytes
	cEntries // QueueStats().ShmNet
	cCompact
	cBulkBytes
	cStalls
	cLockContention
	cIngested // Win.MatchStats
	cDirect
	cAMDispatched // QueueStats().AM
	cAMDropped
	// Counters of the fabric as a whole: under the Real and Sim engines the
	// ranks share one fabric, so these are taken from rank 0 alone.
	cLinkAcks // QueueStats().Faults
	cLinkNacks
	cRetransmits
	cDups
	cPoolGets // QueueStats().Pool
	cPoolHits
	cPoolOversize
	// High-water marks: never differenced, merged by max.
	cStoreHW
	cAMQueueHW
	nCounters
)

// counts is one snapshot of those counters, flat so that snapshots
// subtract and ranks merge in a loop.
type counts [nCounters]float64

// readCounts snapshots p's counters and the matcher counters of wins.
func readCounts(p *fompi.Proc, wins ...*fompi.Win) counts {
	q := p.QueueStats()
	c := counts{
		cFramesSent: float64(q.Net.FramesSent), cFramesRecv: float64(q.Net.FramesRecv),
		cTxFlushes: float64(q.Net.TxFlushes), cRxReads: float64(q.Net.RxReads), cWireBytes: float64(q.Net.BytesSent),
		cEntries: float64(q.ShmNet.EntriesSent), cCompact: float64(q.ShmNet.CompactSent),
		cBulkBytes: float64(q.ShmNet.BulkBytesSent), cStalls: float64(q.ShmNet.SendStalls),
		cLockContention: float64(q.RegionLockContention),
	}
	c.setFabric(q.Faults, q.Pool)
	for _, a := range q.AM {
		c[cAMDispatched] += float64(a.Dispatched)
		c[cAMDropped] += float64(a.Dropped)
		c[cAMQueueHW] = max(c[cAMQueueHW], float64(a.QueuedHighWater))
	}
	for _, w := range wins {
		m := w.MatchStats()
		c[cIngested] += float64(m.Ingested)
		c[cDirect] += float64(m.DirectMatched)
		c[cStoreHW] = max(c[cStoreHW], float64(m.HighWater))
	}
	return c
}

// setFabric fills in the fabric-wide counters.
func (c *counts) setFabric(f fompi.FaultStats, pool fabric.PoolStats) {
	c[cLinkAcks], c[cLinkNacks] = float64(f.LinkAcks), float64(f.LinkNacks)
	c[cRetransmits], c[cDups] = float64(f.Retransmits), float64(f.DupsDropped)
	c[cPoolGets], c[cPoolHits], c[cPoolOversize] = float64(pool.Gets), float64(pool.Hits), float64(pool.Oversize)
}

// since returns the counters accumulated between snapshot b and c.
func (c counts) since(b counts) counts {
	for i := 0; i < cStoreHW; i++ {
		c[i] -= b[i]
	}
	return c
}

// jobCounts merges the two ranks' counters.
func jobCounts(r0, r1 counts, sharedFabric bool) counts {
	c := r0
	for i := range c {
		switch {
		case i >= cStoreHW:
			c[i] = max(c[i], r1[i])
		case i < cLinkAcks || !sharedFabric:
			c[i] += r1[i]
		}
	}
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// emit writes the count-type layer metrics for ops operations, puts of
// them notified puts. Counters a workload's engine does not have read 0.
func (c counts) emit(out map[string]float64, ops, puts float64) {
	out["netfab.frames_per_op"] = c[cFramesSent] / ops
	out["netfab.tx_flushes_per_op"] = c[cTxFlushes] / ops
	out["netfab.rx_reads_per_op"] = c[cRxReads] / ops
	out["netfab.wire_bytes_per_op"] = c[cWireBytes] / ops
	out["netfab.frames_per_read"] = ratio(c[cFramesRecv], c[cRxReads])
	out["shmfab.entries_per_op"] = c[cEntries] / ops
	out["shmfab.compact_frac"] = ratio(c[cCompact], c[cEntries])
	out["shmfab.bulk_bytes_per_op"] = c[cBulkBytes] / ops
	out["shmfab.send_stalls"] = c[cStalls]
	out["fabric.link_acks_per_op"] = c[cLinkAcks] / ops
	out["fabric.link_nacks"] = c[cLinkNacks]
	out["fabric.retransmits"] = c[cRetransmits]
	out["fabric.dups_dropped"] = c[cDups]
	out["fabric.pool_hit_rate"] = ratio(c[cPoolHits], c[cPoolGets])
	out["fabric.pool_oversize"] = c[cPoolOversize]
	out["fabric.region_lock_contention"] = c[cLockContention]
	out["core.direct_match_frac"] = ratio(c[cDirect], c[cIngested])
	out["core.store_highwater"] = c[cStoreHW]
	out["core.am_dispatch_per_put"] = ratio(c[cAMDispatched], puts)
	out["core.am_dropped"] = c[cAMDropped]
	out["core.am_queue_highwater"] = c[cAMQueueHW]
}

// latency writes lat_p50_us and the diag.* tail of sorted latency samples
// (nanoseconds). Only the percentiles the sample count supports — at least
// ten samples beyond — are reported; the rest read 0.
func latency(out map[string]float64, samples []int64) {
	slices.Sort(samples)
	top := stat.HighestTail(len(samples))
	put := func(name string, p float64) {
		out[name] = 0
		if p <= top {
			out[name] = stat.Percentile(samples, p) / 1e3
		}
	}
	put("lat_p50_us", 50)
	put("diag.lat_p90_us", 90)
	put("diag.lat_p99_us", 99)
	put("diag.lat_p999_us", 99.9)
	out["diag.lat_max_us"] = stat.Percentile(samples, 100) / 1e3
	out["diag.lat_samples"] = float64(len(samples))
}

// abBlocks is how many blocks a traced repetition cuts its timed phase
// into, alternately untraced and traced.
const abBlocks = 500

// abBlock is the block length for n timed operations.
func abBlock(n int) int { return max(n/abBlocks, 1) }

// abRing returns ring for operations in a traced block and nil (tracing
// off) for those in an untraced block; a nil ring stays nil.
func abRing(ring *span.Ring, i, block int) *span.Ring {
	if (i/block)%2 == 0 {
		return nil
	}
	return ring
}

// overhead reports trace.overhead_frac of a traced repetition: the median
// of the per-op times measured in traced blocks against that of the
// untraced blocks of the same timed phase. Alternating inside one process
// and job keeps thread placement and drift over the phase — both larger
// than any span cost — out of the number.
func overhead(rep *Rep, samples []int64, block int) {
	if rep.Spans == nil {
		return
	}
	var on, off []int64
	for i, v := range samples {
		if (i/block)%2 == 0 {
			off = append(off, v)
		} else {
			on = append(on, v)
		}
	}
	if len(on) > 0 && len(off) > 0 {
		rep.Metrics["trace.overhead_frac"] = p50(on)/p50(off) - 1
	}
}

// traceRing returns a span ring when tracing is on, nil (tracing off)
// otherwise.
func traceRing(cfg Config) *span.Ring {
	if !cfg.Trace {
		return nil
	}
	return span.NewRing(1 << 15)
}

// job is the state the two rank goroutines of one repetition share. Each
// rank writes only its own slots; the launching goroutine reads them after
// the ranks have joined.
type job struct {
	eng    engine
	t0     int64    // launch call
	past   [2]int64 // rank is past the first barrier, windows allocated
	m      meter
	begun  [2]bool
	c0, c1 [2]counts
	rings  [2]*span.Ring
	bad    [2]int64    // operations that failed verification
	why    [2][]string // first few reasons
}

func newJob(e engine, cfg Config) *job {
	return &job{eng: e, rings: [2]*span.Ring{traceRing(cfg), traceRing(cfg)}}
}

func (j *job) launch(body func(p *fompi.Proc)) error {
	j.t0 = span.Clock()
	return j.eng.launch(body)
}

// ready is the first barrier: set-up ends when the last rank is past it.
func (j *job) ready(p *fompi.Proc) {
	p.Barrier()
	j.past[p.Rank()] = span.Clock()
}

func (j *job) setupSeconds() float64 { return float64(max(j.past[0], j.past[1])-j.t0) / 1e9 }

// begin opens a timed phase: counters are snapshotted and the meter
// started while every rank sits between two barriers.
func (j *job) begin(p *fompi.Proc, wins ...*fompi.Win) {
	r := p.Rank()
	p.Barrier()
	if !j.begun[r] {
		j.begun[r] = true
		j.c0[r] = readCounts(p, wins...)
	}
	if r == 0 {
		j.m.start()
	}
	p.Barrier()
}

// end closes a timed phase; the closing barrier is inside the measured
// wall time, so both directions have completed before the clock stops.
func (j *job) end(p *fompi.Proc, wins ...*fompi.Win) {
	p.Barrier()
	if p.Rank() == 0 {
		j.m.stop()
	}
	j.c1[p.Rank()] = readCounts(p, wins...)
}

// failf records n failed operations at rank r.
func (j *job) failf(r int, n int64, format string, args ...any) {
	j.bad[r] += n
	if len(j.why[r]) < 4 {
		j.why[r] = append(j.why[r], fmt.Sprintf("rank %d: ", r)+fmt.Sprintf(format, args...))
	}
}

// finish folds the job into rep: failures, setup_s, cpu/proc/rss and the
// count-type layer metrics over ops operations, puts of them notified puts.
func (j *job) finish(rep *Rep, ops, puts float64, alloc func(p *fompi.Proc) func()) error {
	for r := range j.bad {
		rep.Failed += j.bad[r]
		rep.Errors = append(rep.Errors, j.why[r]...)
	}
	rep.Metrics["rss_peak_mb"] = rssPeakMB() // before the throwaway set-up jobs add their garbage
	setup, err := medianSetup(j.setupSeconds(), func() (float64, error) { return setupCycle(j.eng, alloc) })
	if err != nil {
		return err
	}
	rep.Metrics["setup_s"] = setup
	j.m.emit(rep.Metrics, ops)
	jobCounts(j.c1[0].since(j.c0[0]), j.c1[1].since(j.c0[1]), j.eng == engReal).emit(rep.Metrics, ops, puts)
	if j.rings[0] != nil {
		rep.Spans = [][]span.Rec{j.rings[0].Records(), j.rings[1].Records()}
		rep.spanStats()
	}
	return nil
}

// spanStats summarises rank 0's spans and reports the median self time of
// every span name, in microseconds, as span.<name>: the rows of the budget
// table. Workloads derive their span-type layer metrics from the result.
func (r *Rep) spanStats() {
	r.stats = span.Stats(r.Spans[0])
	for id, st := range r.stats {
		r.Metrics["span."+r.SpanNames[id]] = st.SelfP50 / 1e3
	}
}
