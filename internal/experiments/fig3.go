package experiments

import (
	"repro/internal/aserta"
	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/sertopt"
	"repro/internal/stats"
)

// Fig3Config parameterizes the ASERTA-vs-golden correlation experiment.
type Fig3Config struct {
	// Depth bounds the plotted gates' distance from the POs (paper: 5).
	Depth int
	// Golden controls the transistor-level reference runs.
	Golden GoldenConfig
	// Vectors feeds ASERTA's sensitization estimate.
	Vectors int
	Seed    uint64
	// MaxGates optionally subsamples the gate set to bound golden cost
	// (0 = all gates within Depth).
	MaxGates int
}

// Fig3Point pairs the two unreliability estimates for one gate.
type Fig3Point struct {
	Gate   string
	ASERTA float64
	Golden float64
}

// Fig3Result is the reproduction of Fig. 3 plus the headline
// correlation number (paper: 0.96 on c432, ISCAS-85 average 0.9).
type Fig3Result struct {
	Points      []Fig3Point
	Correlation float64
	GoldenRuns  int
}

// Fig3 computes per-gate unreliability with ASERTA and with the golden
// transient simulator for gates near the POs of the circuit and
// reports their correlation.
func Fig3(c *ckt.Circuit, lib *charlib.Library, cfg Fig3Config) (*Fig3Result, error) {
	if cfg.Depth == 0 {
		cfg.Depth = 5
	}
	baseline, err := sertopt.InitialSizing(c, lib, 0, cfg.Golden.POLoad)
	if err != nil {
		return nil, err
	}
	an, err := aserta.Analyze(c, lib, baseline, aserta.Config{
		Vectors: cfg.Vectors,
		Seed:    cfg.Seed,
		POLoad:  cfg.Golden.POLoad,
	})
	if err != nil {
		return nil, err
	}
	gates := GatesWithinLevels(c, cfg.Depth)
	if cfg.MaxGates > 0 && len(gates) > cfg.MaxGates {
		// Deterministic subsample.
		rng := stats.NewRNG(cfg.Seed + 13)
		perm := rng.Perm(len(gates))[:cfg.MaxGates]
		sel := make([]int, 0, cfg.MaxGates)
		for _, k := range perm {
			sel = append(sel, gates[k])
		}
		gates = sel
	}
	gcfg := cfg.Golden
	gcfg.Gates = gates
	golden, err := GoldenUnreliability(lib.Tech, c, baseline, gcfg)
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{GoldenRuns: golden.Runs}
	var xs, ys []float64
	for _, gid := range gates {
		res.Points = append(res.Points, Fig3Point{
			Gate:   c.Gates[gid].Name,
			ASERTA: an.Ui[gid],
			Golden: golden.Ui[gid],
		})
		xs = append(xs, an.Ui[gid])
		ys = append(ys, golden.Ui[gid])
	}
	res.Correlation = stats.Pearson(xs, ys)
	return res, nil
}
