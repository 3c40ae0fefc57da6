// Command serbench is the repository's benchmark: three workloads that
// stress different layers of the ASERTA/SERTOPT stack, each run in one
// process, printing every metric with its unit and checking that the
// outputs are correct.
//
//	serbench --workload analyze-fresh|serve-warm|paper --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is a JSON object
// with the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics measured by spans around each layer call (layers.go). The
// process exits 1 when any operation fails a correctness check. Build
// and run it from a checkout with run.sh; README.md records why each
// workload and metric was chosen.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// optSpec is one SERTOPT run's settings.
type optSpec struct {
	vdds, vths            []float64
	iters, basis, vectors int
	seed                  uint64
}

// scale fixes the size of every workload's inputs.
type scale struct {
	// full marks the paper-benchmark scale at which the pinned paper
	// values are checked.
	full bool
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	// warmVectors is the vector count of the set-up analyses that
	// build each handle's seed-independent structures.
	warmVectors int
	// vectors is the analysis vector count of analyze-fresh and
	// serve-warm.
	vectors int
	// comb and seqs are analyze-fresh's circuits; seqCycles its
	// sequential horizon.
	comb, seqs []string
	seqCycles  int
	// serve lists serve-warm's circuits, each at serveSeeds seeds,
	// driven by clients closed-loop clients.
	serve      []string
	serveSeeds int
	clients    int
	// fig3Circuit, fig3, rows and opt are one paper pass.
	fig3Circuit string
	fig3        fig3Spec
	rows        []string
	opt         optSpec
}

var iscas85 = []string{"c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540", "c5315", "c6288", "c7552"}

// fullScale is the paper benchmarks' scale.
var fullScale = scale{
	full:        true,
	setupReps:   3,
	warmVectors: 256,
	vectors:     10000,
	comb:        iscas85,
	seqs:        []string{"s1196", "s5378"},
	seqCycles:   4,
	serve:       iscas85,
	serveSeeds:  2,
	clients:     2,
	fig3Circuit: "c432",
	fig3:        fig3Spec{vectors: 4000, maxGates: 12, goldenVectors: 5},
	rows:        []string{"c432", "c880", "c1355"},
	opt:         optSpec{vdds: []float64{0.8, 1.0}, vths: []float64{0.2, 0.3}, iters: 4, basis: 8, vectors: 4000},
}

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    scale
	// spanDir receives the traced run's spans ("" = not written).
	spanDir string
	// injectWrongU perturbs every checked U by one ulp; the smoke test
	// uses it to prove wrong results are counted as failures.
	injectWrongU bool
}

// runLimit bounds one run, set-up included.
const runLimit = 170 * time.Second

func (c config) timed() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"analyze-fresh": analyzeFresh,
	"serve-warm":    serveWarm,
	"paper":         paper,
}

func main() {
	cfg := config{scale: fullScale}
	flag.StringVar(&cfg.workload, "workload", "", "analyze-fresh, serve-warm or paper")
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "workload seed: circuit order, per-call seeds and request mix")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&cfg.spanDir, "spans", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	// A run must end within three minutes; past runLimit every call
	// fails at its next cancellation point, so a wedged run reports
	// failures instead of hanging.
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	code, err := run(ctx, cfg, os.Stdout)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "serbench:", err)
	}
	os.Exit(code)
}

// run executes one workload and prints its report; it returns the
// process exit code.
func run(ctx context.Context, cfg config, w io.Writer) (int, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (want analyze-fresh, serve-warm or paper)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return 2, fmt.Errorf("--seconds must be positive")
	}
	out, err := fn(ctx, cfg)
	if err != nil {
		return 1, err
	}
	if cfg.trace && cfg.spanDir != "" {
		name := fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed)
		if err := writeSpans(cfg.spanDir, name, out.spans); err != nil {
			return 1, err
		}
	}
	correct, err := printReport(w, cfg, out)
	if err != nil {
		return 1, err
	}
	if !correct {
		for _, r := range out.tally.reasons {
			fmt.Fprintln(os.Stderr, "serbench: failed:", r)
		}
		return 1, nil
	}
	return 0, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints one human-readable line per metric, then the
// JSON result line, and reports whether the result is correct.
func printReport(w io.Writer, cfg config, out *outcome) (bool, error) {
	mode := 0
	if cfg.trace {
		mode = 1
	}
	fmt.Fprintf(w, "serbench workload=%s seed=%d seconds=%g trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	for _, m := range append(append([]metric(nil), out.extra...), out.gated...) {
		fmt.Fprintf(w, "metric %-34s %14.6g %-8s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	if cfg.trace {
		printSelfTimes(w, out.spans)
	}
	attempted, failed := out.tally.counts()
	res := result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]valueUnit{}}
	for _, m := range out.gated {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			res.Correct = false
		}
		res.Metrics[m.Name] = valueUnit{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return res.Correct, err
}

// printSelfTimes prints each span name's count, total and self time.
func printSelfTimes(w io.Writer, spans []span) {
	agg := aggregate(spans)
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := agg[n]
		fmt.Fprintf(w, "span   %-34s count=%-6d total_ms=%-12.4f self_ms=%.4f\n", n, st.count, ms(st.total), ms(st.self))
	}
}
