package ser

// Bounded-error approximate analysis: instead of one fixed-size
// vector run, U is estimated from independent Monte-Carlo batches —
// each batch a full masking-chain analysis over its own fresh random
// vectors — with a Student-t confidence interval on the batch mean
// and early termination once the interval's half-width meets the
// requested relative error. This is plain uniform sampling (every
// batch draws vectors from the same p=0.5 distribution the exact mode
// uses; there is no importance weighting), so the estimate is
// unbiased and the interval honest, but convergence follows 1/√n.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/aserta"
	"repro/internal/ckt"
	"repro/internal/logicsim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ApproxOptions configure the sampled analysis mode. The zero value of
// every field takes the documented default; exact mode is selected by
// leaving AnalysisOptions.Approx nil, never by zero fields here.
type ApproxOptions struct {
	// RelErr is the target relative half-width of the confidence
	// interval: sampling stops once half-width ≤ RelErr·U (default
	// 0.05).
	RelErr float64
	// Confidence selects the interval's coverage: 0.90, 0.95 or 0.99
	// (default 0.95; other values are snapped to the nearest).
	Confidence float64
	// BatchVectors is the vector count per batch (default 1,000).
	BatchVectors int
	// MaxBatches bounds the sampling loop regardless of convergence
	// (default 32). At least minBatches batches always run so the
	// variance estimate is meaningful.
	MaxBatches int
}

// minBatches is the floor on sampled batches: below this a Student-t
// interval is dominated by the heavy tails of tiny degrees of freedom.
const minBatches = 4

// approxSeedStride decorrelates per-batch RNG streams derived from one
// user seed (the golden-ratio increment, as in seq's fault stream).
const approxSeedStride = 0x9e3779b97f4a7c15

func (o ApproxOptions) withDefaults() ApproxOptions {
	if o.RelErr <= 0 {
		o.RelErr = 0.05
	}
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	if o.BatchVectors <= 0 {
		o.BatchVectors = 1000
	}
	if o.MaxBatches <= 0 {
		o.MaxBatches = 32
	}
	if o.MaxBatches < minBatches {
		o.MaxBatches = minBatches
	}
	return o
}

// tQuantile returns the two-sided Student-t critical value at the
// given confidence for df degrees of freedom (table through df=30,
// normal quantile beyond — the standard small-sample practice).
func tQuantile(confidence float64, df int) float64 {
	var tab []float64
	var z float64
	switch {
	case confidence < 0.925: // 0.90
		tab = t90
		z = 1.6449
	case confidence < 0.97: // 0.95
		tab = t95
		z = 1.9600
	default: // 0.99
		tab = t99
		z = 2.5758
	}
	if df < 1 {
		df = 1
	}
	if df <= len(tab) {
		return tab[df-1]
	}
	return z
}

var (
	t90 = []float64{
		6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
		1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
		1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
	}
	t95 = []float64{
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	t99 = []float64{
		63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
		3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
		2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750,
	}
)

// analyzeApprox is the sampled-mode body of AnalyzeCompiledContext.
// Each batch runs the full pipeline — sensitization over fresh
// vectors, electrical ladder, latching window — in Lean scratch with
// the sensitization passed directly (bypassing the handle's memo, so
// a sampling run never evicts the exact-mode entries). Per-gate Ui
// and U are batch means; the report carries the U interval.
func (s *System) analyzeApprox(ctx context.Context, h *Compiled, opts AnalysisOptions, cells aserta.Assignment) (*Report, error) {
	ao := opts.Approx.withDefaults()
	c := h.c
	rec := trace.RecorderFrom(ctx)

	var (
		n        int
		mean, m2 float64 // Welford running mean / sum of squares
		uiSum    []float64
		lastAn   *aserta.Analysis
		half     float64
	)
	for n < ao.MaxBatches {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		batchSeed := opts.Seed + uint64(n+1)*approxSeedStride
		endSens := trace.StartStage(rec, "logicsim.sensitization")
		sens, err := logicsim.AnalyzeCompiled(h.cc, ao.BatchVectors,
			stats.NewRNG(batchSeed), 0)
		endSens()
		if err != nil {
			return nil, err
		}
		an, err := aserta.AnalyzeCompiled(h.cc, s.Lib, cells, aserta.Config{
			Vectors:         ao.BatchVectors,
			Seed:            batchSeed,
			POLoad:          opts.POLoad,
			Spans:           rec,
			Lean:            true,
			PrecomputedSens: sens,
		})
		if err != nil {
			return nil, err
		}
		lastAn = an
		n++
		d := an.U - mean
		mean += d / float64(n)
		m2 += d * (an.U - mean)
		if uiSum == nil {
			uiSum = make([]float64, len(an.Ui))
		}
		for i, u := range an.Ui {
			uiSum[i] += u
		}
		if n >= minBatches {
			sd := math.Sqrt(m2 / float64(n-1))
			half = tQuantile(ao.Confidence, n-1) * sd / math.Sqrt(float64(n))
			if mean > 0 && half <= ao.RelErr*mean {
				break
			}
		}
	}
	if lastAn == nil {
		return nil, fmt.Errorf("ser: approximate analysis ran no batches")
	}

	rep := &Report{
		U:           mean,
		Approx:      true,
		UCILow:      mean - half,
		UCIHigh:     mean + half,
		Confidence:  ao.Confidence,
		Batches:     n,
		VectorsUsed: n * ao.BatchVectors,
		analysis:    lastAn,
	}
	inv := 1 / float64(n)
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		rep.Gates = append(rep.Gates, GateReport{
			Name: g.Name,
			U:    uiSum[g.ID] * inv,
			// Widths and delays are vector-independent: identical in
			// every batch.
			GenWidth: lastAn.GenWidth[g.ID],
			Delay:    lastAn.Delays[g.ID],
		})
	}
	return rep, nil
}
