package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro"
	"repro/internal/engine"
)

// analyzeFresh is one closed-loop caller with no think time. Each
// cycle analyzes every ISCAS-85 circuit, then runs the sequential
// analysis of the ISCAS-89 circuits, each call at a seed not used
// before in the run, so every call pays for sensitization.
func analyzeFresh(ctx context.Context, cfg config) (*outcome, error) {
	sc := cfg.scale
	comb, err := loadCircuits(sc.comb)
	if err != nil {
		return nil, err
	}
	seqs, err := loadCircuits(sc.seqs)
	if err != nil {
		return nil, err
	}
	all := append(append([]*ser.Circuit(nil), comb...), seqs...)
	isComb := func(i int) bool { return i < len(comb) }
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	cal := &calibration{}

	// prepare compiles every circuit and runs one small analysis per
	// handle at a seed the timed phase never uses. The analysis
	// characterizes the circuit's gate classes and builds the handle's
	// structures that depend on neither seed nor vector count (cone
	// arenas, frames).
	prepare := func(s *ser.System, l layers) ([]*ser.Compiled, error) {
		handles := make([]*ser.Compiled, len(all))
		for i, c := range all {
			h, err := l.compile(c)
			if err != nil {
				return nil, err
			}
			handles[i] = h
			seed := warmSeed(cfg.seed, uint64(i))
			if isComb(i) {
				_, err = s.AnalyzeCompiledContext(ctx, h, ser.AnalysisOptions{Vectors: sc.warmVectors, Seed: seed})
			} else {
				_, err = s.AnalyzeSequentialCompiledContext(ctx, h, ser.SequentialOptions{Cycles: sc.seqCycles, Vectors: sc.warmVectors, Seed: seed})
			}
			if err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", c.Name, err)
			}
		}
		return handles, nil
	}

	// Set-up: system, then prepare.
	var sys *ser.System
	var hs []*ser.Compiled
	setup, err := medianSetup(sc.setupReps, cal, func(last bool) error {
		s := ser.NewSystem(ser.CoarseCharacterization)
		l := layers{tr: tr, sys: s}
		if cfg.trace {
			if err := l.precharacterize(ctx, all); err != nil {
				return err
			}
		}
		handles, err := prepare(s, l)
		if err != nil {
			return err
		}
		if last {
			sys, hs = s, handles
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	setupChars := sys.Characterizations()

	// order is cycle k's call order: the combinational suite, then the
	// sequential circuits, each shuffled by the workload seed.
	order := func(k int) []int {
		idx := perm(len(comb), cfg.seed, uint64(2*k))
		for _, j := range perm(len(seqs), cfg.seed, uint64(2*k+1)) {
			idx = append(idx, len(comb)+j)
		}
		return idx
	}
	seedOf := func(i, k int) uint64 { return callSeed(cfg.seed, uint64(i), uint64(k), 1) }

	t := &tally{}
	// refresh replaces the handles before every cycle but the first,
	// outside the timing. Each call leaves its sensitization in its
	// handle's memo; fresh handles keep the memory a cycle retains the
	// same however many cycles fit into the run.
	refresh := func(k int) {
		h, err := prepare(sys, layers{sys: sys})
		if err != nil {
			t.op(false, "fresh handles for cycle %d: %v", k, err)
			return
		}
		hs = h
		runtime.GC()
	}
	type call struct{ i, k int }
	type refCall struct {
		u     float64
		gates int
	}
	ref := map[call]refCall{}
	var samples []sample
	var wins []window
	var combGates, seqGates float64
	var combTime, seqTime time.Duration
	untraced := func(k int) {
		w, c0 := window{}, cpuTime()
		for _, i := range order(k) {
			c, seed := all[i], seedOf(i, k)
			var ck checks
			t0 := time.Now()
			if isComb(i) {
				rep, err := sys.AnalyzeCompiledContext(ctx, hs[i], ser.AnalysisOptions{Vectors: sc.vectors, Seed: seed})
				d := time.Since(t0)
				if !ck.err(err) {
					checkUSum(&ck, reportGateU(rep), rep.U, cfg.injectWrongU)
					ref[call{i, k}] = refCall{rep.U, len(rep.Gates)}
					samples = append(samples, sample{len(rep.Gates), d})
					w.gates += float64(len(rep.Gates))
					combGates += float64(len(rep.Gates))
					combTime += d
				}
			} else {
				rep, err := sys.AnalyzeSequentialCompiledContext(ctx, hs[i], ser.SequentialOptions{Cycles: sc.seqCycles, Vectors: sc.vectors, Seed: seed})
				d := time.Since(t0)
				if !ck.err(err) {
					checkSeq(&ck, rep)
					if sc.full && cfg.seed == defaultSeed && k == 0 && c.Name == "s1196" {
						got := fmt.Sprintf("%.0f", rep.U)
						ck.expect(got == "51441", "U-seq %s, pinned 51441", got)
					}
					ref[call{i, k}] = refCall{rep.U, len(rep.Gates)}
					samples = append(samples, sample{len(rep.Gates), d})
					w.gates += float64(len(rep.Gates))
					seqGates += float64(len(rep.Gates))
					seqTime += d
				}
			}
			ck.done(t, fmt.Sprintf("%s seed %d", c.Name, seed))
		}
		w.cpu = cpuTime() - c0
		wins = append(wins, w)
	}
	checkChars := func() {
		n := sys.Characterizations() - setupChars
		t.op(n == 0, "%d characterizations ran in the timed phase", n)
	}

	if !cfg.trace {
		resetPeakRSS()
		wall := timedWindows(cfg.timed(), cal, &wins, refresh, untraced)
		checkChars()
		gated, extra := endToEnd(setup, wins, samples, wall, cal, t)
		return &outcome{
			gated: gated,
			extra: append(extra,
				metric{Name: "analyze_gates_per_s", Unit: "gates/s", Value: combGates / combTime.Seconds(), Note: "wall"},
				metric{Name: "seq_gates_per_s", Unit: "gates/s", Value: seqGates / seqTime.Seconds(), Note: "wall"},
				failedPct(t),
			),
			tally: t,
		}, nil
	}

	// Traced run: half the time untraced through ser, then the same
	// calls again layer by layer under spans. Each traced call is
	// paired with the same calls made without spans on a second set of
	// handles, which measures the tracer's cost.
	nU, _ := timedCycles(cfg.timed()/2, 0, refresh, untraced)

	l := layers{tr: tr, sys: sys}
	bare := layers{sys: sys}
	ccs := make([]*engine.CompiledCircuit, len(all))
	bareCCs := make([]*engine.CompiledCircuit, len(all))
	texts := make([]string, len(all))
	for i, c := range all {
		seed := warmSeed(cfg.seed, uint64(i))
		for _, cc := range []**engine.CompiledCircuit{&ccs[i], &bareCCs[i]} {
			if *cc, err = engineHandle(c); err != nil {
				return nil, err
			}
			if isComb(i) {
				_, err = bare.analyze(0, 0, *cc, sc.warmVectors, seed)
			} else {
				_, _, err = bare.seqAnalyze(ctx, 0, 0, *cc, sc.seqCycles, sc.warmVectors, seed)
			}
			if err != nil {
				return nil, err
			}
		}
		if texts[i], err = benchText(c); err != nil {
			return nil, err
		}
	}
	in := layerInputs{setupReps: sc.setupReps, setupChars: setupChars}
	var ov overhead
	h0, m0 := memoCounters()
	traced := func(k int) {
		for _, i := range order(k) {
			c, seed, want := all[i], seedOf(i, k), ref[call{i, k}]
			op := tr.newOp()
			var ck checks
			if isComb(i) {
				_, err := l.parseCanon(op, 0, c.Name, texts[i])
				ck.err(err)
				var d decomposed
				err = ov.pair(i, func() error {
					_, err := bare.analyze(0, 0, bareCCs[i], sc.vectors, seed)
					return err
				}, func() error {
					root := tr.begin("op.analyze", op, 0)
					defer root.end()
					var err error
					d, err = l.analyze(op, root.id(), ccs[i], sc.vectors, seed)
					return err
				})
				if !ck.err(err) {
					ck.expect(d.memoHits == 1, "strike call registered %d memo hits, want 1 (sensitization)", d.memoHits)
					ck.expect(sameU(d.U, want.u, cfg.injectWrongU), "decomposed U %v, ser U %v", d.U, want.u)
					in.analyses++
					in.gateVectors += float64(d.gates * sc.vectors)
					in.allocBytes += d.allocBytes
				}
			} else {
				var u float64
				var frameGates int
				err := ov.pair(i, func() error {
					_, _, err := bare.seqAnalyze(ctx, 0, 0, bareCCs[i], sc.seqCycles, sc.vectors, seed)
					return err
				}, func() error {
					root := tr.begin("op.sequential", op, 0)
					defer root.end()
					var err error
					u, frameGates, err = l.seqAnalyze(ctx, op, root.id(), ccs[i], sc.seqCycles, sc.vectors, seed)
					return err
				})
				if !ck.err(err) {
					in.gateVectors += float64(frameGates * sc.vectors)
					ck.expect(sameU(u, want.u, cfg.injectWrongU), "decomposed U-seq %v, ser U-seq %v", u, want.u)
				}
			}
			ck.done(t, fmt.Sprintf("traced %s seed %d", c.Name, seed))
		}
	}
	timedCycles(cfg.timed()/2, nU, nil, traced)
	h1, m1 := memoCounters()
	checkChars()
	in.memoHits, in.memoMisses = h1-h0, m1-m0
	in.overheadPct = ov.pct()
	spans := tr.all()
	agg := aggregate(spans)
	return &outcome{
		gated: layerMetrics(spans, in),
		extra: []metric{{Name: "seq.analyze_ms", Unit: "ms", Value: agg["seq.analyze"].mean()}, failedPct(t)},
		tally: t,
		spans: spans,
	}, nil
}

// reportGateU lists a report's per-gate U in netlist order.
func reportGateU(rep *ser.Report) []float64 {
	u := make([]float64, len(rep.Gates))
	for i, g := range rep.Gates {
		u[i] = g.U
	}
	return u
}

// checkSeq checks a sequential report. Its per-gate U is the sum of
// direct and latched parts, which the engine accumulates in another
// order, so the netlist-order sum is checked to 1e-9 relative.
func checkSeq(ck *checks, rep *ser.SequentialReport) {
	sum := 0.0
	for _, g := range rep.Gates {
		sum += g.U
	}
	ok := rep.U > 0 && !math.IsInf(rep.U, 0) && math.Abs(sum-rep.U) <= 1e-9*math.Abs(rep.U)
	ck.expect(ok, "sequential per-gate U sums to %v, report U %v", sum, rep.U)
}
