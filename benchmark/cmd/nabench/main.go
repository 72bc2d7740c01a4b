// Command nabench is the repository's one benchmark.
//
//	nabench                      run all 7 workloads: repetitions, traced pass, probes
//	nabench -workload pp8_tcp    one workload; -reps N overrides its repetition count
//	nabench -smoke               everything at 1/100 scale, correctness only
//	nabench -compare a.json b.json
//
// Every repetition is a fresh child process (nabench re-execs itself), so
// resident memory, GC state and the scheduler's thread placement are
// re-rolled; a metric's value is the median over repetitions. The
// acceptance driver's form, `--workload W --seed N --seconds S --trace T`,
// runs repetitions of one workload for about S seconds and prints one JSON
// line (see BENCHMARK.json at the repository root).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/benchmark/report"
	"repro/benchmark/span"
	"repro/benchmark/stat"
	"repro/benchmark/work"
)

const (
	smokeScale   = 0.01
	minReps      = 3                 // never fewer untraced repetitions than this
	setupProcs   = 12                // processes behind setup_s in a timed run
	childTimeout = 150 * time.Second // a hung repetition is killed and reported, never waited out
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload")
		reps     = flag.Int("reps", 0, "repetitions per workload (default: the workload's own count)")
		seed     = flag.Int64("seed", 1, "seed of every key and op sequence")
		smoke    = flag.Bool("smoke", false, "every workload and probe at 1/100 scale, correctness only")
		compare  = flag.Bool("compare", false, "compare two result files: nabench -compare old.json new.json")
		out      = flag.String("out", "", "output directory (default benchmark/out)")
		// The acceptance driver's contract.
		seconds = flag.Int("seconds", 0, "driver form: measure one workload for about this many seconds, print one JSON line")
		trace   = flag.Int("trace", 0, "driver form: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		// Internal: one repetition in this process.
		child = flag.Bool("child", false, "internal: run one repetition and print it as JSON")
		scale = flag.Float64("scale", 1, "internal: op-count scale of a child repetition")
	)
	flag.Parse()
	if *out == "" {
		*out = filepath.Join(benchDir(), "out")
	}
	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *child:
		err = runChild(*workload, work.Config{Seed: *seed, Scale: *scale, Trace: *trace == 1}, *out)
	case *seconds > 0:
		err = runDriver(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	default:
		err = runAll(*workload, *reps, *seed, *smoke, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nabench:", err)
		os.Exit(1)
	}
}

// benchDir finds the benchmark directory from the two places nabench is
// started: the repository root (run.sh) or benchmark/ itself (go run -C).
func benchDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "cmd", "nabench")); err == nil {
		return "benchmark"
	}
	return "."
}

// findWorkload resolves a -workload value; an unknown name lists the valid ones.
func findWorkload(name string) (work.Workload, error) {
	w, ok := work.Find(name)
	if !ok {
		return w, fmt.Errorf("unknown workload %q; valid names: %s", name, strings.Join(work.Names(), ", "))
	}
	return w, nil
}

// runChild is one repetition in this process: run, write the trace if
// spans were on, print the repetition as the last line of stdout.
func runChild(name string, cfg work.Config, outDir string) error {
	run := work.Probes
	if name != "probes" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		run = w.Run
	}
	rep, err := run(cfg)
	if err != nil {
		return err
	}
	if rep.Spans != nil {
		if err := writeTrace(filepath.Join(outDir, "trace-"+name+".json"), rep); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

func writeTrace(path string, rep *work.Rep) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := span.WriteChrome(f, rep.SpanNames, rep.Spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spawn runs one repetition as a fresh child process and waits for it; a
// child that outlives childTimeout is killed.
func spawn(name string, cfg work.Config, outDir string) (*work.Rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	tr := "0"
	if cfg.Trace {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name, "-seed", fmt.Sprint(cfg.Seed),
		"-scale", fmt.Sprint(cfg.Scale), "-trace", tr, "-out", outDir)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("%s: repetition still running after %v: killed (a hang to report, not to fix here)", name, childTimeout)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: repetition failed: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var rep work.Rep
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("%s: repetition printed no result: %w", name, err)
	}
	return &rep, nil
}

// plan says how much of one workload to run.
type plan struct {
	seed   int64
	scale  float64
	reps   int           // untraced repetitions; 0: as many as fit the budget, at least minReps
	budget time.Duration // with reps == 0
	trace  bool          // add the traced pass
	setups int           // setup_s is the median over at least this many processes
	outDir string
}

// measure runs the untraced repetitions of w, then the traced pass, and
// summarises every metric over the repetitions that produced it.
func measure(w work.Workload, pl plan) (report.Workload, error) {
	res := report.Workload{Name: w.Name, Latency: w.Latency, Gated: w.Gated, EndToEnd: map[string]stat.Summary{}, Layers: map[string]stat.Summary{}}
	values := map[string][]float64{}
	start := time.Now()
	for i := 0; ; i++ {
		if pl.reps > 0 && i >= pl.reps {
			break
		}
		// The deadline is only ever looked at between repetitions: the work
		// inside one is a fixed op count. Another repetition starts while at
		// least half of it fits the budget, so the measured time is the
		// budget give or take half a repetition.
		if el := time.Since(start); pl.reps == 0 && i >= minReps && el+el/time.Duration(2*i) > pl.budget {
			break
		}
		rep, err := spawn(w.Name, work.Config{Seed: pl.seed, Scale: pl.scale}, pl.outDir)
		if err != nil {
			return res, err
		}
		res.Reps++
		res.Ops = rep.Ops
		absorb(&res, rep)
		for k, v := range rep.Metrics {
			values[k] = append(values[k], v)
		}
	}
	// Set-up time varies by a factor of three from process to process, so
	// workloads with few, long repetitions get more processes for setup_s
	// alone: smoke-scale repetitions, verified like any other, of which only
	// the set-up time is kept.
	for n := res.Reps; n < pl.setups; n++ {
		rep, err := spawn(w.Name, work.Config{Seed: pl.seed, Scale: min(pl.scale, smokeScale)}, pl.outDir)
		if err != nil {
			return res, err
		}
		absorb(&res, rep)
		values["setup_s"] = append(values["setup_s"], rep.Metrics["setup_s"])
	}
	for k, vs := range values {
		if d, ok := report.Lookup(k); ok && d.Bound > 0 {
			res.EndToEnd[k] = stat.Summarize(vs)
		} else {
			res.Layers[k] = stat.Summarize(vs)
		}
	}
	if v := res.Layers["exec.sim_virtual_ns"]; v.N > 0 && v.Min != v.Max {
		res.Failed += res.Attempted
		res.Errors = append(res.Errors, fmt.Sprintf("virtual elapsed time differs across repetitions: %.0f .. %.0f ns", v.Min, v.Max))
	}
	head := report.Headline(w.Latency)
	res.Layers["diag.rep_spread_frac"] = one(res.EndToEnd[head].RangeFrac())

	if pl.trace {
		rep, err := spawn(w.Name, work.Config{Seed: pl.seed, Scale: pl.scale, Trace: true}, pl.outDir)
		if err != nil {
			return res, err
		}
		absorb(&res, rep)
		res.Trace = filepath.Join(pl.outDir, "trace-"+w.Name+".json")
		for k, v := range rep.Metrics {
			if _, untraced := values[k]; !untraced { // span-derived: only the traced pass has it
				res.Layers[k] = one(v)
			}
		}
		if _, own := rep.Metrics["trace.overhead_frac"]; !own {
			// The repetition ran no control phase of its own: compare
			// against the untraced median (latency up, or throughput down).
			over := rep.Metrics[head]/res.EndToEnd[head].Median - 1
			if !w.Latency {
				over = res.EndToEnd[head].Median/rep.Metrics[head] - 1
			}
			res.Layers["trace.overhead_frac"] = one(over)
		}
	}
	res.Layers["diag.fail_frac"] = one(res.FailFrac())
	return res, nil
}

func one(v float64) stat.Summary { return stat.Summarize([]float64{v}) }

// absorb folds a repetition's verification outcome into the workload's.
func absorb(res *report.Workload, rep *work.Rep) {
	res.Attempted += rep.Attempted
	res.Failed += rep.Failed
	res.Errors = append(res.Errors, rep.Errors...)
	res.Flags = append(res.Flags, rep.Flags...)
}

func provenance(seed int64, scale float64) report.Provenance {
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
		if b, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(b) > 0 {
			commit += "+dirty"
		}
	}
	return report.Provenance{
		Time: time.Now().UTC().Format(time.RFC3339), Commit: commit, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Race: raceEnabled, Seed: seed, Scale: scale,
	}
}

// runAll is the one command: every selected workload, its repetitions and
// traced pass, the probes, result.json, the traces, the printed tables. A
// complete default run is an official run and appends to the trajectory.
func runAll(name string, reps int, seed int64, smoke bool, outDir string) error {
	ws := work.All
	if name != "" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		ws = []work.Workload{w}
	}
	scale := 1.0
	if smoke {
		scale = smokeScale
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	res := &report.Result{Provenance: provenance(seed, scale)}
	for _, w := range ws {
		n := w.Reps
		if reps > 0 {
			n = reps
		}
		if smoke {
			n = 1
		}
		fmt.Fprintf(os.Stderr, "nabench: %s: %d repetitions + traced pass\n", w.Name, n)
		pl := plan{seed: seed, scale: scale, reps: n, trace: true, setups: setupProcs, outDir: outDir}
		if smoke {
			pl.setups = 0 // correctness only
		}
		wr, err := measure(w, pl)
		if err != nil {
			return err
		}
		res.Workloads = append(res.Workloads, wr)
	}
	fmt.Fprintln(os.Stderr, "nabench: probes")
	probes, err := spawn("probes", work.Config{Seed: seed, Scale: scale}, outDir)
	if err != nil {
		return err
	}
	res.Probes = map[string]stat.Summary{}
	for k, v := range probes.Metrics {
		res.Probes[k] = one(v)
	}
	probeFailed := probes.Failed

	res.Print(os.Stdout)
	path := filepath.Join(outDir, "result.json")
	if err := res.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	if name == "" && reps == 0 && !smoke {
		traj := filepath.Join(benchDir(), "results", "trajectory.jsonl")
		if err := res.AppendTrajectory(traj); err != nil {
			return err
		}
		fmt.Printf("appended to %s\n", traj)
	}
	if failed := res.Failed() + probeFailed; failed > 0 {
		return fmt.Errorf("%d operations failed verification (%v)", failed, probes.Errors)
	}
	return nil
}

// runDriver is the acceptance driver's form: one workload, repetitions for
// about budget, one JSON line with every end-to-end metric (trace off) or
// every per-layer metric (trace on, which adds the traced pass and probes).
func runDriver(name string, seed int64, budget time.Duration, trace bool, outDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	pl := plan{seed: seed, scale: 1, budget: budget, trace: trace, setups: setupProcs, outDir: outDir}
	var probes *work.Rep
	if trace {
		// The traced pass and the probes take their share of the budget, and
		// the per-layer line carries no setup_s.
		pl.reps, pl.budget, pl.setups = minReps, 0, 0
		if probes, err = spawn("probes", work.Config{Seed: seed, Scale: 1}, outDir); err != nil {
			return err
		}
	}
	wr, err := measure(w, pl)
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, map[string]value{}}
	if !trace {
		for _, d := range report.EndToEnd {
			line.Metrics[d.Name] = value{wr.EndToEnd[d.Name].Median, d.Unit}
		}
	} else {
		line.Attempted += probes.Attempted
		line.Failed += probes.Failed
		line.Correct = line.Failed == 0
		for _, d := range report.PerLayer {
			v, ok := probes.Metrics[d.Name]
			if !ok {
				v = wr.Layers[d.Name].Median // 0 where the layer is not on this workload's path
			}
			line.Metrics[d.Name] = value{v, d.Unit}
		}
	}
	for _, e := range append(wr.Errors, wr.Flags...) {
		fmt.Fprintln(os.Stderr, "nabench:", w.Name+":", e)
	}
	return json.NewEncoder(os.Stdout).Encode(line)
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: nabench -compare old.json new.json")
	}
	parent, err := report.ReadFile(args[0])
	if err != nil {
		return err
	}
	change, err := report.ReadFile(args[1])
	if err != nil {
		return err
	}
	rows, ok := report.Compare(parent, change)
	report.PrintRows(os.Stdout, rows)
	if !ok {
		return errors.New("at least one metric is worse than the parent beyond its bound, or fail_frac rose")
	}
	return nil
}
