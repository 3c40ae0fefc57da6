package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// tinyScale runs every workload's code path in a few seconds.
var tinyScale = scale{
	setupReps:   2,
	warmVectors: 64,
	vectors:     512,
	comb:        []string{"c17", "c432"},
	seqs:        []string{"s27"},
	seqCycles:   2,
	serve:       []string{"c17", "c432"},
	serveSeeds:  1,
	clients:     2,
	fig3Circuit: "c432",
	fig3:        fig3Spec{vectors: 512, maxGates: 6, goldenVectors: 1},
	rows:        []string{"c17"},
	opt:         optSpec{vdds: []float64{0.8, 1.0}, vths: []float64{0.2, 0.3}, iters: 1, basis: 2, vectors: 256},
}

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// workloadMetrics are the workload-specific metrics each run prints on
// its human-readable lines, untraced and traced.
var workloadMetrics = map[string][2][]string{
	"analyze-fresh": {{"ref_kernel_ms", "setup_cpu_raw_s", "gates_per_cpu_raw_s", "setup_wall_s", "gates_per_s", "op_p50_ms", "analyze_gates_per_s", "seq_gates_per_s", "failed_pct"}, {"seq.analyze_ms", "failed_pct"}},
	"serve-warm": {{"ref_kernel_ms", "setup_cpu_raw_s", "gates_per_cpu_raw_s", "setup_wall_s", "gates_per_s", "op_p50_ms", "serve_rps", "serve_p50_ms", "serve_p99_ms", "serve_warmup_s", "failed_pct"}, {
		"serd.handler_ms", "serd.job_ms", "serd.overhead_ms", "serd.transport_ms", "serd.alloc_mb_per_req",
		"serd.compiled_cache_hit_ratio", "serd.errors", "serd.stage.sertopt.sizing_ms", "serd.stage.strike.sources_ms",
		"serd.stage.strike.electrical_ms", "serd.stage.strike.reduce_ms", "serd.stage.logicsim.sensitization_ms", "failed_pct",
	}},
	"paper": {{"ref_kernel_ms", "setup_cpu_raw_s", "gates_per_cpu_raw_s", "setup_wall_s", "gates_per_s", "op_p50_ms", "paper_pass_s", "fig3_correlation", "table1_u_decrease_pct", "failed_pct"}, {
		"experiments.fig3_ms", "sertopt.optimize_ms", "sertopt.evaluations_per_s", "failed_pct",
	}},
}

var metricLine = regexp.MustCompile(`^metric (\S+)\s+(\S+) (\S+)`)

// runTiny runs one workload at tiny scale and returns its exit code,
// the metrics printed on its human-readable lines (name -> unit and
// value) and its JSON result.
func runTiny(t *testing.T, workload string, trace, inject bool) (int, map[string][2]string, result) {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: 0.3, trace: trace, scale: tinyScale, spanDir: t.TempDir(), injectWrongU: inject}
	var buf bytes.Buffer
	code, err := run(context.Background(), cfg, &buf)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	printed := map[string][2]string{}
	for _, l := range lines {
		if m := metricLine.FindStringSubmatch(l); m != nil {
			printed[m[1]] = [2]string{m[3], m[2]}
		}
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v\n%s", workload, err, buf.String())
	}
	return code, printed, res
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for i, trace := range []bool{false, true} {
			code, printed, res := runTiny(t, w.Name, trace, false)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: exit %d, result %+v", w.Name, trace, code, res)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
				if p := printed[m.Name]; p[0] != m.Unit {
					t.Errorf("%s trace=%v: line for %s prints unit %q, want %q", w.Name, trace, m.Name, p[0], m.Unit)
				}
			}
			for _, name := range workloadMetrics[w.Name][i] {
				if p, ok := printed[name]; !ok || p[0] == "" {
					t.Errorf("%s trace=%v: metric %s not printed with a unit", w.Name, trace, name)
				}
			}
		}
	}
}

func TestWrongUCountsAsFailed(t *testing.T) {
	for name := range workloads {
		code, printed, res := runTiny(t, name, false, true)
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: injected wrong U gave exit %d, result %+v", name, code, res)
		}
		pct, err := strconv.ParseFloat(printed["failed_pct"][1], 64)
		if err != nil || pct <= 0 {
			t.Errorf("%s: failed_pct %q, want > 0", name, printed["failed_pct"][1])
		}
	}
}

func TestCallSeeds(t *testing.T) {
	if got := callSeed(defaultSeed, 5, 0, 3); got != 3 {
		t.Errorf("default seed, first call: %d, want the paper seed 3", got)
	}
	seen := map[uint64]bool{}
	for k := uint64(0); k < 1000; k++ {
		s := callSeed(defaultSeed, 5, k, 3)
		if seen[s] || s == warmSeed(defaultSeed, 5) {
			t.Fatalf("call %d reuses seed %d", k, s)
		}
		seen[s] = true
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	agg := aggregate(spans)
	if got := agg["op"].self; got != 100-50-10 {
		t.Errorf("op self time %d, want 40", got)
	}
	if got := agg["a"].self; got != 30 {
		t.Errorf("leaf self time %d, want 30", got)
	}
}
