// Command aserta analyzes the soft-error tolerance of a circuit: it
// runs the paper's ASERTA flow and reports the circuit unreliability U
// and the highest-contribution ("softest") gates. With -cycles it runs
// the multi-cycle sequential engine instead, which handles ISCAS-89
// circuits with flip-flops (strikes captured into flops propagate as
// logical faults through subsequent clock cycles).
//
// With -susceptibility it prints the ranked per-gate susceptibility
// report instead: each gate's share of the circuit unreliability and
// the cumulative share through its rank — the selective-hardening
// shopping list ("the top N gates carry X% of the susceptibility").
//
// Usage:
//
//	aserta -circuit c432 [-vectors 10000] [-top 10]
//	aserta -circuit c432 -susceptibility -top 20
//	aserta -circuit s27 -cycles 4 [-susceptibility]
//	aserta -bench path/to/netlist.bench [-libcache lib.json]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("aserta: ")
	var (
		circuit  = flag.String("circuit", "", "benchmark name (ISCAS-85 c17...c7552, ISCAS-89 s27...s38417)")
		benchF   = flag.String("bench", "", "path to a .bench netlist (overrides -circuit)")
		vectors  = flag.Int("vectors", 10000, "random vectors for sensitization probabilities")
		seed     = flag.Uint64("seed", 1, "RNG seed")
		top      = flag.Int("top", 10, "number of softest gates to list")
		cycles   = flag.Int("cycles", 0, "sequential analysis horizon in clock cycles (0 = combinational ASERTA; required >=1 for circuits with DFFs)")
		susc     = flag.Bool("susceptibility", false, "print the ranked per-gate susceptibility report (share + cumulative share) instead of the default tables")
		coarse   = flag.Bool("coarse", false, "use the coarse characterization grid (faster)")
		libcache = flag.String("libcache", "", "path to a JSON library cache (loaded if present, saved after)")
		approx   = flag.Bool("approx", false, "bounded-error sampled analysis instead of the exact run (combinational only); reports a confidence interval on U")
		relerr   = flag.Float64("approx-relerr", 0.05, "approx: target relative half-width of the confidence interval")
		conf     = flag.Float64("approx-confidence", 0.95, "approx: interval coverage (0.90, 0.95 or 0.99)")
		batchVec = flag.Int("approx-batch-vectors", 1000, "approx: random vectors per Monte-Carlo batch")
		maxBatch = flag.Int("approx-max-batches", 32, "approx: batch cap regardless of convergence")
	)
	flag.Parse()

	var c *ser.Circuit
	var err error
	switch {
	case *benchF != "":
		c, err = ser.LoadBenchFile(*benchF)
	case *circuit != "":
		c, err = ser.Benchmark(*circuit)
	default:
		log.Fatalf("need -circuit or -bench (benchmarks: %v)", ser.BenchmarkNames())
	}
	if err != nil {
		log.Fatal(err)
	}

	level := ser.DefaultCharacterization
	if *coarse {
		level = ser.CoarseCharacterization
	}
	sys := ser.NewSystem(level)
	if *libcache != "" {
		if _, statErr := os.Stat(*libcache); statErr == nil {
			if err := sys.LoadLibrary(*libcache); err != nil {
				log.Fatalf("load library cache: %v", err)
			}
			fmt.Printf("loaded library cache %s\n", *libcache)
		}
	}

	fmt.Println(ser.Summary(c))
	if *cycles > 0 || c.Sequential() {
		if *cycles <= 0 {
			log.Fatalf("circuit %s has flip-flops; pass -cycles N (>= 1) for the sequential analysis", c.Name)
		}
		if *approx {
			log.Fatal("-approx supports the combinational flow only (omit -cycles)")
		}
		rep, err := sys.AnalyzeSequential(c, ser.SequentialOptions{
			Cycles: *cycles, Vectors: *vectors, Seed: *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sequential unreliability over %d cycles: U = %.2f (direct %.2f + latched %.2f), FIT = %.3g\n",
			rep.Cycles, rep.U, rep.DirectU, rep.LatchedU, rep.FIT)
		if *susc {
			printSusceptibility(rep.Susceptibility(), *top)
		} else {
			fmt.Printf("%-12s %12s %12s %12s\n", "gate", "U_i", "direct", "latched")
			for _, g := range rep.Softest(*top) {
				fmt.Printf("%-12s %12.3f %12.3f %12.3f\n", g.Name, g.U, g.DirectU, g.LatchedU)
			}
			fmt.Printf("%-12s %14s %18s\n", "flop", "capture U", "errors per fault")
			for _, f := range rep.FlopReports {
				fmt.Printf("%-12s %14.3f %18.3f\n", f.Name, f.CaptureU, f.ErrorsPerFault)
			}
		}
	} else {
		opts := ser.AnalysisOptions{Vectors: *vectors, Seed: *seed}
		if *approx {
			opts.Approx = &ser.ApproxOptions{
				RelErr:       *relerr,
				Confidence:   *conf,
				BatchVectors: *batchVec,
				MaxBatches:   *maxBatch,
			}
		}
		rep, err := sys.Analyze(c, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("circuit unreliability U = %.2f (Eq. 4; area-weighted expected PO glitch width, ps scale)\n", rep.U)
		if rep.Approx {
			fmt.Printf("approx: %.0f%% CI [%.2f, %.2f] after %d batches (%d vectors)\n",
				rep.Confidence*100, rep.UCILow, rep.UCIHigh, rep.Batches, rep.VectorsUsed)
		}
		if *susc {
			printSusceptibility(rep.Susceptibility(), *top)
		} else {
			fmt.Printf("%-12s %12s %14s %12s\n", "gate", "U_i", "gen width ps", "delay ps")
			for _, g := range rep.Softest(*top) {
				fmt.Printf("%-12s %12.3f %14.2f %12.2f\n", g.Name, g.U, g.GenWidth/1e-12, g.Delay/1e-12)
			}
		}
	}

	if *libcache != "" {
		if err := sys.SaveLibrary(*libcache); err != nil {
			log.Fatalf("save library cache: %v", err)
		}
		fmt.Printf("saved library cache %s\n", *libcache)
	}
}

// printSusceptibility renders the ranked per-gate report: absolute
// contribution, share of the circuit total and the running cumulative
// share.
func printSusceptibility(entries []ser.SusceptibilityEntry, top int) {
	n := len(entries)
	if top > 0 && top < n {
		n = top
	}
	fmt.Printf("%-6s %-12s %12s %9s %9s\n", "rank", "gate", "U_i", "share", "cum")
	for i := 0; i < n; i++ {
		e := entries[i]
		fmt.Printf("%-6d %-12s %12.3f %8.2f%% %8.2f%%\n", i+1, e.Name, e.U, 100*e.Share, 100*e.CumShare)
	}
	if n < len(entries) {
		fmt.Printf("(%d more gates carry the remaining %.2f%%)\n",
			len(entries)-n, 100*(1-entries[n-1].CumShare))
	}
}
