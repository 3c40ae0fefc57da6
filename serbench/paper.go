package main

import (
	"context"
	"fmt"
	"time"

	"repro"
)

// Seeds of the repository's paper benchmarks: Fig. 3 analysis and
// golden vectors, and the Table 1 optimizer.
const (
	fig3Seed   = 1
	goldenSeed = 2
	table1Seed = 3
)

// paper is one closed-loop caller repeating the paper's accuracy
// experiments at bench scale: Fig. 3 (ASERTA against the golden
// transient simulator) and the SERTOPT Table 1 rows. Every pass runs
// them at the paper benchmarks' seeds on freshly compiled handles, so
// each pass is the same cold computation and must reproduce the
// pinned values; the workload seed fixes the order of the experiments
// within each pass.
func paper(ctx context.Context, cfg config) (*outcome, error) {
	sc := cfg.scale
	fig3C, err := ser.Benchmark(sc.fig3Circuit)
	if err != nil {
		return nil, err
	}
	rows, err := loadCircuits(sc.rows)
	if err != nil {
		return nil, err
	}
	all := append([]*ser.Circuit{fig3C}, rows...)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	cal := &calibration{}

	// Set-up: system, compile, and one small analysis per circuit at a
	// seed the timed phase never uses, which characterizes the gate
	// classes Fig. 3 and the optimizer need.
	var sys *ser.System
	setup, err := medianSetup(sc.setupReps, cal, func(last bool) error {
		s := ser.NewSystem(ser.CoarseCharacterization)
		l := layers{tr: tr, sys: s}
		if cfg.trace {
			if err := l.precharacterize(ctx, all); err != nil {
				return err
			}
		}
		for i, c := range all {
			h, err := l.compile(c)
			if err != nil {
				return err
			}
			if _, err := s.AnalyzeCompiledContext(ctx, h, ser.AnalysisOptions{Vectors: sc.warmVectors, Seed: warmSeed(cfg.seed, uint64(i))}); err != nil {
				return fmt.Errorf("warm-up %s: %w", c.Name, err)
			}
		}
		if last {
			sys = s
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	setupChars := sys.Characterizations()

	f3 := sc.fig3
	f3.seed, f3.goldenSeed = fig3Seed, goldenSeed
	o := sc.opt
	o.seed = table1Seed
	// order is pass k's experiment order: 0 is Fig. 3, r+1 Table 1 row r.
	order := func(k int) []int { return perm(len(all), cfg.seed, uint64(k)) }
	passGates := 0
	for _, c := range all {
		passGates += nonInputGates(c)
	}

	t := &tally{}
	// The first pass's results; every later pass must repeat them
	// bit for bit.
	var corr0 float64
	type row struct{ dec, cost float64 }
	rows0 := make([]row, len(rows))
	var samples []sample
	var wins []window
	untraced := func(k int) {
		t0, c0 := time.Now(), cpuTime()
		for _, e := range order(k) {
			var ck checks
			if e == 0 {
				corr, err := layers{sys: sys}.fig3(0, 0, fig3C, f3)
				if !ck.err(err) {
					ck.expect(corr >= -1 && corr <= 1, "correlation %v outside [-1, 1]", corr)
					if sc.full {
						got := fmt.Sprintf("%.4f", corr)
						ck.expect(got == "0.9841", "Fig. 3 correlation %s, pinned 0.9841", got)
					}
					if k == 0 {
						corr0 = corr
					}
					ck.expect(sameU(corr, corr0, false), "Fig. 3 correlation %v, first pass %v", corr, corr0)
				}
				ck.done(t, fmt.Sprintf("fig3 %s", fig3C.Name))
				continue
			}
			r, c := e-1, rows[e-1]
			h, err := ser.Compile(c)
			if !ck.err(err) {
				res, err := sys.OptimizeCompiledContext(ctx, h, ser.OptimizeOptions{
					VDDs: o.vdds, Vths: o.vths, Iterations: o.iters, MaxBasis: o.basis, Vectors: o.vectors, Seed: o.seed,
				})
				if !ck.err(err) {
					raw := res.Raw()
					ck.expect(len(raw.History) > 0 && raw.Cost <= raw.History[0], "SERTOPT cost %v above its starting cost", raw.Cost)
					checkOptimizerUSums(&ck, raw, cfg.injectWrongU)
					if sc.full && c.Name == "c432" {
						got := fmt.Sprintf("%.3f", 100*res.UDecrease)
						ck.expect(got == "3.653", "Table 1 c432 U decrease %s%%, pinned 3.653%%", got)
					}
					if k == 0 {
						rows0[r] = row{res.UDecrease, raw.Cost}
					}
					ck.expect(sameU(res.UDecrease, rows0[r].dec, false), "U decrease %v, first pass %v", res.UDecrease, rows0[r].dec)
				}
			}
			ck.done(t, fmt.Sprintf("optimize %s", c.Name))
		}
		samples = append(samples, sample{passGates, time.Since(t0)})
		wins = append(wins, window{gates: float64(passGates), cpu: cpuTime() - c0})
	}
	checkChars := func() {
		n := sys.Characterizations() - setupChars
		t.op(n == 0, "%d characterizations ran in the timed phase", n)
	}

	if !cfg.trace {
		resetPeakRSS()
		wall := timedWindows(cfg.timed(), cal, &wins, nil, untraced)
		checkChars()
		passes := make([]float64, len(samples))
		for i, s := range samples {
			passes[i] = s.dur.Seconds()
		}
		gated, extra := endToEnd(setup, wins, samples, wall, cal, t)
		return &outcome{
			gated: gated,
			extra: append(extra,
				metric{Name: "paper_pass_s", Unit: "s", Value: median(passes), Note: fmt.Sprintf("wall n=%d", len(passes))},
				metric{Name: "fig3_correlation", Unit: "1", Value: corr0},
				metric{Name: "table1_u_decrease_pct", Unit: "%", Value: 100 * rows0[0].dec, Note: rows[0].Name},
				failedPct(t),
			),
			tally: t,
		}, nil
	}

	// Traced run: half the time untraced, then the same passes with
	// Fig. 3 and the optimizer called directly, each row on a fresh
	// handle and preceded by its baseline analysis layer by layer.
	// Every traced experiment is paired with the same calls made
	// without spans, which measures the tracer's cost.
	nU, _ := timedCycles(cfg.timed()/2, 0, nil, untraced)
	// The ser analyses the decomposed baseline analyses must match.
	baseU := make([]float64, len(rows))
	texts := make([]string, len(rows))
	for r, c := range rows {
		h, err := ser.Compile(c)
		if err != nil {
			return nil, err
		}
		rep, err := sys.AnalyzeCompiledContext(ctx, h, ser.AnalysisOptions{Vectors: o.vectors, Seed: o.seed})
		if err != nil {
			return nil, err
		}
		baseU[r] = rep.U
		if texts[r], err = benchText(c); err != nil {
			return nil, err
		}
	}

	l := layers{tr: tr, sys: sys}
	bare := layers{sys: sys}
	in := layerInputs{setupReps: sc.setupReps, setupChars: setupChars}
	var ov overhead
	var evals int
	h0, m0 := memoCounters()
	traced := func(k int) {
		for _, e := range order(k) {
			op := tr.newOp()
			var ck checks
			if e == 0 {
				var corr float64
				err := ov.pair(e, func() error {
					_, err := bare.fig3(0, 0, fig3C, f3)
					return err
				}, func() error {
					root := tr.begin("op.fig3", op, 0)
					defer root.end()
					var err error
					corr, err = l.fig3(op, root.id(), fig3C, f3)
					return err
				})
				if !ck.err(err) {
					ck.expect(sameU(corr, corr0, false), "traced correlation %v, untraced %v", corr, corr0)
				}
				ck.done(t, "traced fig3")
				continue
			}
			r, c := e-1, rows[e-1]
			_, err := l.parseCanon(op, 0, c.Name, texts[r])
			ck.err(err)
			var row rowResult
			err = ov.pair(e, func() error {
				_, err := bare.optimizeRow(0, 0, c, o)
				return err
			}, func() error {
				root := tr.begin("op.optimize", op, 0)
				defer root.end()
				var err error
				row, err = l.optimizeRow(op, root.id(), c, o)
				return err
			})
			if !ck.err(err) {
				d := row.base
				ck.expect(d.memoHits == 1, "strike call registered %d memo hits, want 1 (sensitization)", d.memoHits)
				ck.expect(sameU(d.U, baseU[r], cfg.injectWrongU), "decomposed U %v, ser U %v", d.U, baseU[r])
				in.analyses++
				in.gateVectors += float64(d.gates * o.vectors)
				in.allocBytes += d.allocBytes
				ck.expect(sameU(row.dec, rows0[r].dec, false) && sameU(row.cost, rows0[r].cost, false),
					"direct SERTOPT decrease %v cost %v, ser %v %v", row.dec, row.cost, rows0[r].dec, rows0[r].cost)
				evals += row.evals
			}
			ck.done(t, "traced optimize "+c.Name)
		}
	}
	timedCycles(cfg.timed()/2, nU, nil, traced)
	h1, m1 := memoCounters()
	checkChars()
	in.memoHits, in.memoMisses = h1-h0, m1-m0
	in.overheadPct = ov.pct()
	spans := tr.all()
	agg := aggregate(spans)
	opt := agg["sertopt.optimize"]
	evalRate := 0.0
	if opt.total > 0 {
		evalRate = float64(evals) / opt.total.Seconds()
	}
	return &outcome{
		gated: layerMetrics(spans, in),
		extra: []metric{
			{Name: "experiments.fig3_ms", Unit: "ms", Value: agg["experiments.fig3"].mean()},
			{Name: "sertopt.optimize_ms", Unit: "ms", Value: opt.mean()},
			{Name: "sertopt.evaluations_per_s", Unit: "1/s", Value: evalRate},
			failedPct(t),
		},
		tally: t,
		spans: spans,
	}, nil
}
