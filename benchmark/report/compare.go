package report

import (
	"fmt"
	"io"
	"math"

	"repro/benchmark/stat"
)

// Verdict is the outcome of comparing one metric on one workload.
type Verdict string

const (
	Better     Verdict = "better"
	Same       Verdict = "same"
	Worse      Verdict = "worse"
	Unresolved Verdict = "unresolved" // spread wider than the bound and the repetition ranges overlap
)

// Row is one line of the comparison: workload x end-to-end metric.
type Row struct {
	Workload, Metric string
	Parent, Change   stat.Summary
	Delta            float64 // (change-parent)/parent, signed as measured
	Bound            float64
	Verdict          Verdict
	Gated            bool // false: reported, but a worse verdict does not fail the comparison
}

// judge compares a metric's repetitions on two commits. Inside the bound
// is "same"; outside it, better or worse by the metric's direction. When
// the run-to-run spread of either side's median (stat.Summary.MedianSpread)
// is wider than the bound, the medians cannot resolve a difference of that
// size: the row is then decided only if the two sides' repetition ranges do
// not overlap, and is "unresolved" otherwise — never "same".
func judge(d Def, parent, change stat.Summary) (delta float64, v Verdict) {
	if parent.Median == 0 {
		return 0, Unresolved
	}
	delta = (change.Median - parent.Median) / math.Abs(parent.Median)
	worse := delta
	if d.Better == "higher" {
		worse = -delta
	}
	if d.Name == "setup_s" && math.Abs(change.Median-parent.Median) < SetupFloorSeconds {
		return delta, Same
	}
	if max(parent.MedianSpread(), change.MedianSpread()) > d.Bound {
		if change.Min > parent.Max || change.Max < parent.Min {
			if worse > 0 {
				return delta, Worse
			}
			return delta, Better
		}
		return delta, Unresolved
	}
	switch {
	case worse > d.Bound:
		return delta, Worse
	case worse < -d.Bound:
		return delta, Better
	}
	return delta, Same
}

// Compare judges every workload x end-to-end metric present in both
// results, plus fail_frac, where any increase is worse. ok is false when a
// row of a gated workload is worse, or fail_frac rose anywhere.
func Compare(parent, change *Result) (rows []Row, ok bool) {
	ok = true
	for _, cw := range change.Workloads {
		pw, found := parent.Find(cw.Name)
		if !found {
			continue
		}
		for _, d := range EndToEnd {
			ps, pok := pw.EndToEnd[d.Name]
			cs, cok := cw.EndToEnd[d.Name]
			if !pok || !cok {
				continue
			}
			delta, v := judge(d, ps, cs)
			rows = append(rows, Row{cw.Name, d.Name, ps, cs, delta, d.Bound, v, cw.Gated})
			ok = ok && (v != Worse || !cw.Gated)
		}
		one := func(v float64) stat.Summary { return stat.Summarize([]float64{v}) }
		v := Same
		if cw.FailFrac() > pw.FailFrac() {
			v, ok = Worse, false
		} else if cw.FailFrac() < pw.FailFrac() {
			v = Better
		}
		rows = append(rows, Row{cw.Name, "diag.fail_frac", one(pw.FailFrac()), one(cw.FailFrac()),
			cw.FailFrac() - pw.FailFrac(), 0, v, true})
	}
	return rows, ok
}

// PrintRows writes the comparison table.
func PrintRows(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "%-13s %-15s %12s %12s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "parent", "change", "delta", "bound", "spread_p", "spread_c", "verdict")
	for _, r := range rows {
		verdict := string(r.Verdict)
		if !r.Gated {
			verdict += " (not gated)"
		}
		fmt.Fprintf(w, "%-13s %-15s %12s %12s %+7.1f%% %5.0f%% %7.1f%% %7.1f%%  %s\n",
			r.Workload, r.Metric, num(r.Parent.Median), num(r.Change.Median), 100*r.Delta, 100*r.Bound,
			100*r.Parent.MedianSpread(), 100*r.Change.MedianSpread(), verdict)
	}
}
