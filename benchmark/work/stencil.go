package work

import (
	"slices"

	"repro/benchmark/span"
	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/runtime"
	"repro/internal/stencil"
)

const (
	stencilRanks = 16
	stencilRows  = 12800
	stencilCols  = 64
	stencilIters = 2
)

// stencilVirtualNs is the virtual elapsed time of the NA stencil on the Sim
// engine, by row count, recorded when the benchmark was defined. The Sim
// engine is deterministic, so a run that differs by one nanosecond has
// changed what the shared fabric/core/rma path does — the benchmark's
// strongest correctness check. 12800 rows is the full run, 128 the smoke
// run; other scales are only checked for equality across repetitions.
var stencilVirtualNs = map[int]int64{
	12800: 9707573,
	128:   152885,
}

var stencilSpanNames = []string{"Proc.Barrier", "stencil.Run"}

// SimStencil runs the paper's pipelined stencil, Notified Access variant,
// on 16 simulated ranks: about 384 k simulated notified puts, one OS
// thread at a time, no kernel involved.
func SimStencil(cfg Config) (*Rep, error) {
	o := stencil.Options{Rows: cfg.n(stencilRows, 1), Cols: stencilCols, Iters: stencilIters, Variant: stencil.NA}
	// One put per row per rank boundary, plus the corner feedback per sweep.
	puts := float64((stencilRanks-1)*(o.Rows-1)*o.Iters + o.Iters)
	rep := &Rep{Workload: "sim_stencil", Metrics: map[string]float64{}, SpanNames: stencilSpanNames,
		Ops: map[string]int64{"simulated_puts": int64(puts), "rows": int64(o.Rows)}}

	run := func(body func(p *runtime.Proc)) error {
		return runtime.Run(runtime.Options{Ranks: stencilRanks, Mode: exec.Sim}, body)
	}
	var m meter
	var past [stencilRanks]int64
	var res stencil.Result
	var faults fabric.FaultStats
	var pool fabric.PoolStats
	var contention int64
	rings := make([]*span.Ring, stencilRanks)
	for r := range rings {
		rings[r] = traceRing(cfg)
	}
	t0 := span.Clock()
	err := run(func(p *runtime.Proc) {
		r := p.Rank()
		b0 := rings[r].Now()
		p.Barrier()
		past[r] = span.Clock()
		rings[r].Add(0, 0, span.None, b0, past[r])
		if r == 0 {
			m.start()
		}
		out := stencil.Run(p, o) // opens and closes with its own barrier
		rings[r].Add(1, 1, span.None, past[r], rings[r].Now())
		if r == 0 {
			m.stop()
			res = out
			faults, pool = p.World().Fabric().FaultStats(), p.World().Fabric().PoolStats()
		}
		contention += p.NIC().RegionLockContention() // Sim runs one rank at a time
	})
	if err != nil {
		return nil, err
	}
	own := float64(slices.Max(past[:])-t0) / 1e9

	rep.Attempted = int64(puts)
	if !res.Valid {
		rep.fail(rep.Attempted, "stencil corner %v does not verify (want %v)", res.Corner, stencil.ExpectedCorner(o))
	}
	if want, ok := stencilVirtualNs[o.Rows]; ok && int64(res.Elapsed) != want {
		rep.fail(rep.Attempted, "virtual elapsed time %d ns differs from the recorded %d ns", int64(res.Elapsed), want)
	}

	mt := rep.Metrics
	mt["rss_peak_mb"] = rssPeakMB()

	// Set-up: launch call until all 16 simulated ranks are past the barrier.
	setup, err := medianSetup(own, func() (float64, error) {
		var last int64
		s0 := span.Clock()
		err := run(func(p *runtime.Proc) {
			p.Barrier()
			last = max(last, span.Clock()) // Sim runs one rank at a time
		})
		return float64(last-s0) / 1e9, err
	})
	if err != nil {
		return nil, err
	}
	mt["setup_s"] = setup
	m.emit(mt, puts)
	c := counts{cLockContention: float64(contention)}
	c.setFabric(faults, pool)
	c.emit(mt, puts, puts)
	secs := float64(m.wallNs) / 1e9
	mt["ops_per_s"] = puts / secs
	mt["goodput_MBps"] = 8 * puts / secs / 1e6
	// The simulator runs one rank at a time, so the wall time per simulated
	// put is the only latency there is; it stands in for lat_p50_us.
	mt["lat_p50_us"] = secs * 1e6 / puts
	mt["exec.sim_wall_us_per_put"] = mt["lat_p50_us"]
	mt["exec.sim_virtual_ns"] = float64(res.Elapsed)
	if cfg.Trace {
		for _, r := range rings {
			rep.Spans = append(rep.Spans, r.Records())
		}
		rep.spanStats()
	}
	return rep, nil
}
