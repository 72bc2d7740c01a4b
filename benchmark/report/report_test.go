package report

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/benchmark/stat"
)

// The verdict table is tested at a 10% bound whatever the registry's are.
var lat = Def{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
var rate = Def{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}

func sum(xs ...float64) stat.Summary { return stat.Summarize(xs) }

// The -compare verdict table.
func TestJudge(t *testing.T) {
	tight := func(c float64) stat.Summary { return sum(c*0.99, c*0.995, c, c*1.005, c*1.01) }
	// Five repetitions whose median would itself move by a quarter run to run.
	wide := func(c float64) stat.Summary { return sum(c*0.7, c*0.85, c, c*1.15, c*1.3) }
	for _, c := range []struct {
		name           string
		d              Def
		parent, change stat.Summary
		want           Verdict
	}{
		{"inside the bound", lat, tight(100), tight(105), Same},
		{"latency up beyond the bound", lat, tight(100), tight(115), Worse},
		{"latency down beyond the bound", lat, tight(100), tight(85), Better},
		{"throughput down beyond the bound", rate, tight(100), tight(85), Worse},
		{"throughput up beyond the bound", rate, tight(100), tight(115), Better},
		{"wide spread, overlapping ranges: no claim either way", lat, wide(100), wide(115), Unresolved},
		{"wide spread, medians equal: still not 'same'", lat, wide(100), wide(100), Unresolved},
		{"wide spread but every run of the change is slower", lat, wide(100), wide(300), Worse},
		{"wide spread but every run of the change is faster", lat, wide(100), wide(30), Better},
		{"one side wide is enough", lat, tight(100), wide(108), Unresolved},
		{"zero parent median", lat, sum(0, 0, 0), tight(5), Unresolved},
	} {
		if _, got := judge(c.d, c.parent, c.change); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	setup := EndToEnd[0]
	if _, got := judge(setup, tight(0.002), tight(0.004)); got != Same {
		t.Errorf("set-up 2 ms -> 4 ms: %s, want same (under the %v s floor)", got, SetupFloorSeconds)
	}
	if _, got := judge(setup, tight(0.020), tight(0.040)); got != Worse {
		t.Errorf("set-up 20 ms -> 40 ms: %s, want worse", got)
	}
}

func result(latency float64, failed int64) *Result {
	return &Result{Workloads: []Workload{{Name: "pp8_tcp", Gated: true, Attempted: 1000, Failed: failed,
		EndToEnd: map[string]stat.Summary{"lat_p50_us": sum(latency*0.99, latency, latency*1.01)}}}}
}

func TestCompareFailsOnWorseAndOnAnyFailFracIncrease(t *testing.T) {
	if rows, ok := Compare(result(20, 0), result(20.5, 0)); !ok || len(rows) != 2 || rows[0].Verdict != Same {
		t.Errorf("same commit: ok %v rows %+v", ok, rows)
	}
	if _, ok := Compare(result(20, 0), result(26, 0)); ok {
		t.Error("a 30% slower median passed")
	}
	rows, ok := Compare(result(20, 0), result(20, 1))
	if ok || rows[1].Metric != "diag.fail_frac" || rows[1].Verdict != Worse {
		t.Errorf("one failed op in a thousand passed: %+v", rows)
	}
	if _, ok := Compare(result(20, 2), result(20, 1)); !ok {
		t.Error("a lower fail_frac was refused")
	}
	slow := result(26, 0)
	slow.Workloads[0].Gated = false
	if rows, ok := Compare(result(20, 0), slow); !ok || rows[0].Verdict != Worse {
		t.Errorf("an ungated workload's worse row must be reported without failing: ok %v rows %+v", ok, rows)
	}
	var buf bytes.Buffer
	PrintRows(&buf, rows)
	if !strings.Contains(buf.String(), "worse") || !strings.Contains(buf.String(), "pp8_tcp") {
		t.Errorf("table:\n%s", buf.String())
	}
}

// BENCHMARK.json at the repository root is the contract the acceptance
// driver reads; it must mirror the registry here.
func TestBenchmarkJSONMirrorsTheRegistry(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json above the benchmark directory:", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []Def) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the registry %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the registry %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, EndToEnd)
	check("per_layer", doc.PerLayer, PerLayer)
}

func TestTrajectoryLineAndResultRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := result(20, 0)
	r.Provenance = Provenance{Commit: "abc1234", Seed: 1, Scale: 1}
	path := filepath.Join(dir, "result.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil || back.Workloads[0].EndToEnd["lat_p50_us"].Median != 20 {
		t.Fatalf("round trip: %v %+v", err, back)
	}
	traj := filepath.Join(dir, "trajectory.jsonl")
	for i := 0; i < 2; i++ {
		if err := r.AppendTrajectory(traj); err != nil {
			t.Fatal(err)
		}
	}
	b, _ := os.ReadFile(traj)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d trajectory lines, want 2", len(lines))
	}
	var l struct {
		Commit    string
		Workloads map[string]map[string]float64
	}
	if err := json.Unmarshal([]byte(lines[1]), &l); err != nil || l.Commit != "abc1234" || l.Workloads["pp8_tcp"]["lat_p50_us"] != 20 {
		t.Errorf("trajectory line %q: %v", lines[1], err)
	}
}
