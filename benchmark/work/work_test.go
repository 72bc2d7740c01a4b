package work

import (
	"encoding/json"
	"os"
	"testing"

	"repro/benchmark/report"
)

// BENCHMARK.json lists exactly the gated workloads, with their reasons.
func TestBenchmarkJSONListsTheGatedWorkloads(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json above the benchmark directory:", err)
	}
	var doc struct{ Workloads []struct{ Name, Why string } }
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, w := range All {
		if !w.Gated {
			continue
		}
		if i >= len(doc.Workloads) || doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Fatalf("BENCHMARK.json workload %d does not match gated workload %s", i, w.Name)
		}
		i++
	}
	if i != len(doc.Workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, %d are gated", len(doc.Workloads), i)
	}
}

// Every workload and the probes run in-process at the smoke scale: no timing
// is asserted, only that the verifiers pass, that every end-to-end metric
// is reported and nonzero, and that the traced pass yields spans.
func TestEveryWorkloadRunsAndVerifies(t *testing.T) {
	cfg := Config{Seed: 3, Scale: 0.01, Trace: true}
	for _, w := range All {
		rep, err := w.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, rep.Failed, rep.Attempted, rep.Errors)
		}
		for _, d := range report.EndToEnd {
			if rep.Metrics[d.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, rep.Metrics[d.Name])
			}
		}
		for name := range rep.Metrics {
			if _, ok := report.Lookup(name); !ok && name[:5] != "span." {
				t.Errorf("%s reports %s, which the registry does not define", w.Name, name)
			}
		}
		if len(rep.Spans) == 0 || len(rep.Spans[0]) == 0 {
			t.Errorf("%s: traced pass recorded no spans", w.Name)
		}
	}
	rep, err := Probes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Errorf("probes: %v", rep.Errors)
	}
	for name := range rep.Metrics {
		if _, ok := report.Lookup(name); !ok {
			t.Errorf("probes report %s, which the registry does not define", name)
		}
	}
}

// Counters of layers a workload does not cross must read exactly zero.
func TestLayersOffThePathReadZero(t *testing.T) {
	rep, err := PP8Shm(Config{Seed: 1, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"netfab.frames_per_op", "netfab.tx_flushes_per_op", "netfab.wire_bytes_per_op",
		"fabric.link_acks_per_op", "fabric.retransmits", "core.am_dropped"} {
		if v, ok := rep.Metrics[name]; !ok || v != 0 {
			t.Errorf("pp8_shm: %s = %v (reported %v), want 0", name, v, ok)
		}
	}
	if rep.Metrics["shmfab.entries_per_op"] <= 0 {
		t.Error("pp8_shm: no ring entries counted")
	}
}
