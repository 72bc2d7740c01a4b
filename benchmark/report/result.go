package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/benchmark/stat"
)

// Provenance says where and how a result was taken.
type Provenance struct {
	Time       string  `json:"time"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Race       bool    `json:"race"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
}

// Workload is the result of one workload: every metric summarised over the
// repetitions that produced it. End-to-end and count metrics come from the
// untraced repetitions (N = repetitions); span metrics from the traced pass
// (N = 1).
type Workload struct {
	Name      string                  `json:"name"`
	Latency   bool                    `json:"latency"` // lat_p50_us is a per-op distribution: gets a budget table
	Gated     bool                    `json:"gated"`   // listed in BENCHMARK.json: end-to-end metrics are held to their bounds
	Reps      int                     `json:"reps"`
	Ops       map[string]int64        `json:"ops"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Errors    []string                `json:"errors,omitempty"`
	Flags     []string                `json:"flags,omitempty"`
	EndToEnd  map[string]stat.Summary `json:"end_to_end"`
	Layers    map[string]stat.Summary `json:"per_layer"`
	Trace     string                  `json:"trace,omitempty"`
}

// FailFrac is failed over attempted operations.
func (w Workload) FailFrac() float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}

// Result is benchmark/out/result.json.
type Result struct {
	Provenance Provenance              `json:"provenance"`
	Workloads  []Workload              `json:"workloads"`
	Probes     map[string]stat.Summary `json:"probes,omitempty"`
}

// Find returns the named workload's result.
func (r *Result) Find(name string) (Workload, bool) {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Failed sums failed operations over all workloads.
func (r *Result) Failed() int64 {
	var n int64
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

// WriteFile writes the result as indented JSON.
func (r *Result) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile loads a result file.
func ReadFile(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// AppendTrajectory appends the result's medians as one JSON line: the perf
// history is a file a tool can diff, not archaeology.
func (r *Result) AppendTrajectory(path string) error {
	type line struct {
		Provenance
		Workloads map[string]map[string]float64 `json:"workloads"`
		Spreads   map[string]map[string]float64 `json:"spreads"`
	}
	l := line{r.Provenance, map[string]map[string]float64{}, map[string]map[string]float64{}}
	for _, w := range r.Workloads {
		l.Workloads[w.Name], l.Spreads[w.Name] = map[string]float64{}, map[string]float64{}
		for name, s := range w.EndToEnd {
			l.Workloads[w.Name][name] = s.Median
			l.Spreads[w.Name][name] = s.Spread()
		}
		l.Workloads[w.Name]["diag.fail_frac"] = w.FailFrac()
	}
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// num prints a value with enough digits to tell runs apart at any scale.
func num(v float64) string {
	switch a := max(v, -v); {
	case a == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.2f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

func row(w io.Writer, d Def, s stat.Summary) {
	if s.N == 1 { // traced pass or probe: one value, no spread to show
		fmt.Fprintf(w, "  %-32s %-6s %12s  n=1\n", d.Name, d.Unit, num(s.Median))
		return
	}
	fmt.Fprintf(w, "  %-32s %-6s %12s  [%s .. %s]  q1-q3 %s .. %s  spread %4.1f%%  n=%d\n",
		d.Name, d.Unit, num(s.Median), num(s.Min), num(s.Max), num(s.Q1), num(s.Q3), 100*s.Spread(), s.N)
}

// Print writes every metric of every workload by name, with unit, median
// and spread, then the probes, then a budget table per latency workload.
func (r *Result) Print(w io.Writer) {
	p := r.Provenance
	fmt.Fprintf(w, "nabench  commit %s  %s  GOMAXPROCS %d  nproc %d  race %v  seed %d  scale %g\n",
		p.Commit, p.GoVersion, p.GOMAXPROCS, p.NProc, p.Race, p.Seed, p.Scale)
	for _, wl := range r.Workloads {
		gate := ""
		if !wl.Gated {
			gate = "  (not gated)"
		}
		fmt.Fprintf(w, "\n== %s%s  reps %d  ops %v  attempted %d  failed %d  fail_frac %g\n",
			wl.Name, gate, wl.Reps, wl.Ops, wl.Attempted, wl.Failed, wl.FailFrac())
		for _, e := range wl.Errors {
			fmt.Fprintf(w, "  FAIL %s\n", e)
		}
		for _, f := range wl.Flags {
			fmt.Fprintf(w, "  flag %s\n", f)
		}
		fmt.Fprintln(w, " end to end (median over repetitions):")
		for _, d := range EndToEnd {
			if s, ok := wl.EndToEnd[d.Name]; ok {
				row(w, d, s)
			}
		}
		fmt.Fprintln(w, " per layer:")
		for _, d := range PerLayer {
			if s, ok := wl.Layers[d.Name]; ok {
				row(w, d, s)
			}
		}
		if wl.Trace != "" {
			fmt.Fprintf(w, " trace: %s\n", wl.Trace)
		}
	}
	if len(r.Probes) > 0 {
		fmt.Fprintln(w, "\n== probes (traced pass)")
		for _, d := range PerLayer {
			if s, ok := r.Probes[d.Name]; ok {
				row(w, d, s)
			}
		}
	}
	budgets := false
	for _, wl := range r.Workloads {
		if wl.Latency {
			r.printBudget(w, wl)
			budgets = true
		}
	}
	if budgets {
		fmt.Fprintln(w, "\n(span self times are rank 0's, per round trip — two half round trips — on pp8_* and hol64_tcp, per generator tick on kv_*)")
	}
}

// bareLink names the probe that measures the link under a workload alone.
func bareLink(workload string) string {
	switch {
	case strings.HasSuffix(workload, "_tcp"):
		return "netfab.half_rtt_p50_us_8B"
	case strings.HasSuffix(workload, "_shm"):
		return "shmfab.half_rtt_p50_us_8B"
	}
	return ""
}

// printBudget is the from-outside answer to "where do the microseconds go"
// for one latency workload: end-to-end p50, the link alone (from the
// probes), what fabric+rma+core add, and the median self time of every span
// name of the traced pass (the span.<name> metrics).
func (r *Result) printBudget(w io.Writer, wl Workload) {
	e2e := wl.EndToEnd["lat_p50_us"].Median
	fmt.Fprintf(w, "\n-- budget %s: end-to-end p50 %s us", wl.Name, num(e2e))
	if link := r.Probes[bareLink(wl.Name)].Median; link > 0 {
		fmt.Fprintf(w, ", bare link p50 %s us, fabric+rma+core add %s us", num(link), num(e2e-link))
	}
	fmt.Fprintln(w)
	var names []string
	for name := range wl.Layers {
		if strings.HasPrefix(name, "span.") {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(w, "   span self p50  %-28s %10s us\n", strings.TrimPrefix(n, "span."), num(wl.Layers[n].Median))
	}
}
