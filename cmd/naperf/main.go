// Command naperf regenerates the paper's tables and figures on the
// simulated fabric. Run with -list to see every experiment, -experiment
// <name> for one, or -all for the full evaluation (EXPERIMENTS.md records
// the comparison against the paper).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "", "experiment to run (see -list)")
	all := flag.Bool("all", false, "run every experiment")
	list := flag.Bool("list", false, "list available experiments")
	format := flag.String("format", "text", "output format: text, markdown, csv")
	quick := flag.Bool("quick", false, "shrink wall-clock experiments to a fast smoke pass (CI)")
	jsonDir := flag.String("json", "", "directory to write BENCH_<name>.json machine-readable metrics into (one file per experiment that reports metrics)")
	kvp99max := flag.Float64("kvp99max", 0, "regression floor: exit 1 if the kvload TCP p99 exceeds this many microseconds (0 disables)")
	recoverymax := flag.Float64("recoverymax", 0, "regression ceiling: exit 1 if the recovery experiment's end-to-end outage exceeds this many milliseconds (0 disables)")
	flag.Parse()
	outputFormat = *format
	bench.Quick = *quick
	jsonOut = *jsonDir
	kvP99Floor = *kvp99max
	recoveryCeil = *recoverymax

	switch {
	case *list:
		fmt.Println("available experiments:")
		for _, e := range bench.Registry() {
			fmt.Printf("  %-15s %s\n", e.Name, e.Desc)
		}
	case *all:
		for _, e := range bench.Registry() {
			run(e)
		}
	case *experiment != "":
		e, ok := bench.Lookup(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q", *experiment)
			if near := closest(*experiment, bench.Names()); near != "" {
				fmt.Fprintf(os.Stderr, " (did you mean %q?)", near)
			}
			fmt.Fprintln(os.Stderr, "; try -list")
			os.Exit(2)
		}
		run(e)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if floorViolation != "" {
		fmt.Fprintln(os.Stderr, floorViolation)
		os.Exit(1)
	}
}

var (
	outputFormat   = "text"
	jsonOut        string
	kvP99Floor     float64
	recoveryCeil   float64
	floorViolation string
)

// closest returns the candidate with the smallest edit distance to name,
// or "" when nothing is plausibly a typo (distance > half the name).
func closest(name string, candidates []string) string {
	best, bestD := "", len(name)/2+1
	for _, c := range candidates {
		if d := editDistance(name, c); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func run(e bench.Experiment) {
	start := time.Now()
	t := e.Run()
	switch outputFormat {
	case "markdown":
		t.FprintMarkdown(os.Stdout)
	case "csv":
		t.FprintCSV(os.Stdout)
	default:
		t.Fprint(os.Stdout)
	}
	if outputFormat == "text" {
		fmt.Printf("(%s regenerated in %.1fs)\n\n", e.Name, time.Since(start).Seconds())
	}
	if jsonOut != "" && len(t.Metrics) > 0 {
		if err := writeJSON(t); err != nil {
			fmt.Fprintf(os.Stderr, "naperf: writing %s metrics: %v\n", t.Name, err)
			os.Exit(1)
		}
	}
	if kvP99Floor > 0 && t.Name == "kvload" {
		if p99, ok := t.Metrics["p99_tcp"]; ok && p99 > kvP99Floor {
			floorViolation = fmt.Sprintf(
				"naperf: kvload TCP p99 = %.3f us exceeds the pinned floor of %.3f us",
				p99, kvP99Floor)
		}
	}
	if recoveryCeil > 0 && t.Name == "recovery" {
		if rec, ok := t.Metrics["recovery_ms"]; ok && rec > recoveryCeil {
			floorViolation = fmt.Sprintf(
				"naperf: recovery end-to-end outage = %.3f ms exceeds the pinned ceiling of %.3f ms",
				rec, recoveryCeil)
		}
	}
}

// writeJSON records an experiment's machine-readable metrics as
// BENCH_<name>.json so CI (and regression tooling) can diff runs without
// scraping table text.
func writeJSON(t *bench.Table) error {
	if err := os.MkdirAll(jsonOut, 0o755); err != nil {
		return err
	}
	doc := struct {
		Name    string             `json:"name"`
		Title   string             `json:"title"`
		Quick   bool               `json:"quick"`
		Metrics map[string]float64 `json:"metrics"`
	}{t.Name, t.Title, bench.Quick, t.Metrics}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(jsonOut, "BENCH_"+t.Name+".json")
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
