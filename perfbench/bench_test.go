package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"afforest/internal/gen"
	"afforest/internal/graph"
)

// tiny is a small kron workload, so a test run takes seconds.
var tiny = workload{
	name:    "tiny",
	main:    func(s uint64) *graph.CSR { return gen.Kronecker(14, 16, gen.Graph500, s) },
	serve:   func(s uint64) *graph.CSR { return gen.URandDegree(1<<12, 8, s) },
	cluster: func(s uint64) *graph.CSR { return gen.Kronecker(12, 16, gen.Graph500, s) },
}

// exactCounts are the per-layer metrics that are counts, not timings: a
// later change may rest a claim on them only because they repeat
// exactly for one seed.
var exactCounts = []string{
	"wal.bytes_per_edge",
	"cluster.bytes_per_edge.load",
	"cluster.bytes_per_edge.write",
	"cluster.rounds_per_write",
	"cluster.messages_per_write",
	"core.final_arcs_frac",
}

func runTiny(t *testing.T, traced bool, dir string) result {
	t.Helper()
	r := newRun(tiny, 7, 3*time.Second, traced, dir)
	res, err := r.execute()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced=%v: correct=%v, %d of %d operations failed: %v", traced, res.Correct, res.Failed, res.Attempted, r.wrong)
	}
	return res
}

func TestExactCountsRepeat(t *testing.T) {
	dir := t.TempDir()
	a, b := runTiny(t, true, dir), runTiny(t, true, dir)
	for _, name := range exactCounts {
		x, ok := a.Metrics[name]
		if !ok || x.Value == 0 {
			t.Errorf("%s missing or zero: %+v", name, x)
		}
		if y := b.Metrics[name]; x != y {
			t.Errorf("%s differs between two runs of one seed: %v vs %v", name, x.Value, y.Value)
		}
	}
}

// TestReportsEveryDeclaredMetric checks the output against
// BENCHMARK.json: an untraced run prints every end-to-end metric and a
// traced run every per-layer metric, each with its declared unit.
func TestReportsEveryDeclaredMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	dir := t.TempDir()
	for _, c := range []struct {
		traced bool
		want   []declared
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		got := runTiny(t, c.traced, dir).Metrics
		if len(got) != len(c.want) {
			t.Errorf("traced=%v: %d metrics reported, %d declared", c.traced, len(got), len(c.want))
		}
		for _, d := range c.want {
			if m, ok := got[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("traced=%v: %s reported as %+v, declared unit %q", c.traced, d.Name, m, d.Unit)
			}
		}
	}
}
