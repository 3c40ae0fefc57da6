package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/serd"
	"repro/serclient"
)

// reqKind is one of serve-warm's request types.
type reqKind int

const (
	susByName     reqKind = iota // /v1/susceptibility by circuit name, top 10
	analyzeByName                // /v1/analyze by name, full per-gate report
	susInline                    // /v1/susceptibility with inline .bench text
)

var kindNames = [...]string{"susceptibility", "analyze", "susceptibility-inline"}

// mixBlock is one block of the request mix: half susceptibility by
// name, a quarter analyze by name, a quarter inline susceptibility.
var mixBlock = []reqKind{susByName, susByName, analyzeByName, susInline}

// serveCacheGates sizes serd's compiled-circuit cache to hold the
// workload's working set: every ISCAS-85 handle, by name and inline,
// with its memoized sensitization at two seeds weighs about 1.1M
// cache units, while the default budget (500k) keeps about three
// handles and would turn every request into a recompile and a fresh
// sensitization. Every other setting is serd's default.
const serveCacheGates = 2_000_000

// servePair is one (circuit, seed) the clients request.
type servePair struct {
	circuit int
	seed    uint64
}

// serveReq is one request of the mix.
type serveReq struct {
	pair int
	kind reqKind
}

// served is what the benchmark keeps of one response.
type served struct {
	u       float64
	gates   int
	top10   float64
	jobMS   float64
	timings *serclient.TimingsReport
	// gateU is the per-gate U of an analyze response, nil otherwise;
	// it is checked, then dropped.
	gateU []float64
}

// serveWarm is serd behind a loopback server, driven by closed-loop
// serclient clients after a warm-up pass has filled its compiled
// cache and the handles' sensitization memos.
func serveWarm(ctx context.Context, cfg config) (*outcome, error) {
	sc := cfg.scale
	circuits, err := loadCircuits(sc.serve)
	if err != nil {
		return nil, err
	}
	var pairs []servePair
	for i := range circuits {
		for s := 0; s < sc.serveSeeds; s++ {
			pairs = append(pairs, servePair{i, callSeed(cfg.seed, uint64(i), uint64(s), 1)})
		}
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	cal := &calibration{}

	// Cold set-up, repeated: system, server, the inline texts, and one
	// small request per circuit, which characterizes its gate classes
	// and compiles it into the server's cache. setup_s is its median.
	var (
		sys    *ser.System
		srv    *serd.Server
		ts     *httptest.Server
		client *serclient.Client
		texts  []string
	)
	closeServer := func() {
		if ts != nil {
			ts.Close()
			srv.Close()
			ts, srv = nil, nil
		}
	}
	defer closeServer()
	setup, err := medianSetup(sc.setupReps, cal, func(last bool) error {
		closeServer()
		sys = ser.NewSystem(ser.CoarseCharacterization)
		l := layers{tr: tr, sys: sys}
		if cfg.trace {
			if err := l.precharacterize(ctx, circuits); err != nil {
				return err
			}
		}
		srv = serd.New(serd.Config{System: sys, CompiledCacheGates: serveCacheGates})
		ts = httptest.NewServer(tracedHandler{srv: srv, tr: tr})
		client = serclient.NewWithOptions(ts.URL, serclient.Options{
			HTTPClient: &http.Client{Transport: opTransport{base: ts.Client().Transport}},
		})
		texts = make([]string, len(circuits))
		for i, c := range circuits {
			var err error
			if texts[i], err = benchText(c); err != nil {
				return err
			}
			if cfg.trace {
				if _, err = l.compile(c); err != nil {
					return err
				}
			}
			if _, err := client.Susceptibility(ctx, serclient.SusceptibilityRequest{
				Circuit: c.Name, Vectors: sc.warmVectors, Seed: warmSeed(cfg.seed, uint64(i)), Top: 10,
			}); err != nil {
				return fmt.Errorf("warm-up %s: %w", c.Name, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	do := func(ctx context.Context, r serveReq, timings bool) (served, error) {
		p := pairs[r.pair]
		c := circuits[p.circuit]
		switch r.kind {
		case analyzeByName:
			resp, err := client.Analyze(ctx, serclient.AnalyzeRequest{Circuit: c.Name, Vectors: sc.vectors, Seed: p.seed, Timings: timings})
			if err != nil {
				return served{}, err
			}
			out := served{u: resp.U, gates: resp.Gates, jobMS: resp.ElapsedMS, timings: resp.Timings}
			out.gateU = make([]float64, len(resp.GateReports))
			for i, g := range resp.GateReports {
				out.gateU[i] = g.U
			}
			return out, nil
		default:
			req := serclient.SusceptibilityRequest{Circuit: c.Name, Vectors: sc.vectors, Seed: p.seed, Top: 10, Timings: timings}
			if r.kind == susInline {
				req.Circuit, req.Netlist, req.Name = "", texts[p.circuit], c.Name
			}
			resp, err := client.Susceptibility(ctx, req)
			if err != nil {
				return served{}, err
			}
			out := served{u: resp.U, gates: resp.Gates, jobMS: resp.ElapsedMS, timings: resp.Timings}
			if len(resp.Entries) >= 10 {
				out.top10 = resp.Entries[9].CumShare
			}
			return out, nil
		}
	}

	// Warm-up pass: every request of the mix once. It runs once, so its
	// time is printed as serve_warmup_s but is not part of setup_s.
	t := &tally{}
	want := map[serveReq]served{}
	t0 := time.Now()
	for p := range pairs {
		for _, k := range []reqKind{susByName, analyzeByName, susInline} {
			r := serveReq{p, k}
			var ck checks
			resp, err := do(ctx, r, false)
			if !ck.err(err) && resp.gateU != nil {
				checkUSum(&ck, resp.gateU, resp.u, cfg.injectWrongU)
			}
			resp.gateU = nil
			want[r] = resp
			ck.done(t, fmt.Sprintf("warm-up %s %s seed %d", kindNames[k], circuits[pairs[p].circuit].Name, pairs[p].seed))
		}
	}
	warmup := time.Since(t0)
	setupChars := sys.Characterizations()

	// Each warm-up answer must equal the in-process analysis of the
	// same circuit and seed: the named circuit for requests by name,
	// the canonical form of the parsed text for inline ones, which is
	// what serd analyzes. Each check runs on a handle of its own that
	// is dropped right after, so the benchmark keeps no sensitization
	// results beside the server's.
	for p, pr := range pairs {
		c := circuits[pr.circuit]
		opts := ser.AnalysisOptions{Vectors: sc.vectors, Seed: pr.seed}
		var ck checks
		u, err := analyzeOnce(ctx, sys, c, opts)
		if !ck.err(err) {
			for _, k := range []reqKind{susByName, analyzeByName} {
				got := want[serveReq{p, k}].u
				ck.expect(sameU(got, u, cfg.injectWrongU), "%s U %v, in-process U %v", kindNames[k], got, u)
			}
		}
		canon, err := canonical(c.Name, texts[pr.circuit])
		if !ck.err(err) {
			u, err := analyzeOnce(ctx, sys, canon, opts)
			if !ck.err(err) {
				got := want[serveReq{p, susInline}].u
				ck.expect(sameU(got, u, cfg.injectWrongU), "inline U %v, in-process canonical U %v", got, u)
			}
		}
		if sc.full && cfg.seed == defaultSeed && c.Name == "c7552" && pr.seed == 1 {
			got := fmt.Sprintf("%.2f", 100*want[serveReq{p, susByName}].top10)
			ck.expect(got == "14.67", "c7552 top-10 share %s%%, pinned 14.67%%", got)
		}
		ck.done(t, fmt.Sprintf("in-process check %s seed %d", c.Name, pr.seed))
	}

	// The request mix: blocks holding every pair in every slot of
	// mixBlock, each block shuffled by the workload seed.
	var mixMu sync.Mutex
	var block []serveReq
	nBlocks := 0
	next := func() serveReq {
		mixMu.Lock()
		defer mixMu.Unlock()
		if len(block) == 0 {
			n := len(pairs) * len(mixBlock)
			for _, j := range perm(n, cfg.seed, uint64(1000+nBlocks)) {
				block = append(block, serveReq{j / len(mixBlock), mixBlock[j%len(mixBlock)]})
			}
			nBlocks++
		}
		r := block[0]
		block = block[1:]
		return r
	}

	type reqSample struct {
		sample
		op   int64
		resp served
	}
	// drive runs the closed-loop clients for d and returns their
	// completed requests and wall time.
	drive := func(d time.Duration, traced *tracer) ([]reqSample, time.Duration) {
		var mu sync.Mutex
		var out []reqSample
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(d)
		for w := 0; w < sc.clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					r := next()
					p := pairs[r.pair]
					op := traced.newOp()
					root := traced.begin("op.request", op, 0)
					rctx := ctx
					if traced != nil {
						rctx = withOp(ctx, op, root.id())
					}
					t1 := time.Now()
					resp, err := do(rctx, r, traced != nil)
					lat := time.Since(t1)
					root.end()
					var ck checks
					if !ck.err(err) {
						ref := want[r]
						ck.expect(sameU(resp.u, ref.u, cfg.injectWrongU), "%s U %v, warm-up U %v", kindNames[r.kind], resp.u, ref.u)
						if resp.gateU != nil {
							checkUSum(&ck, resp.gateU, resp.u, cfg.injectWrongU)
						}
						resp.gateU = nil
						mu.Lock()
						out = append(out, reqSample{sample{resp.gates, lat}, op, resp})
						mu.Unlock()
					}
					ck.done(t, fmt.Sprintf("%s %s seed %d", kindNames[r.kind], circuits[p.circuit].Name, p.seed))
				}
			}()
		}
		wg.Wait()
		return out, time.Since(start)
	}
	samplesOf := func(rs []reqSample) []sample {
		out := make([]sample, len(rs))
		for i, r := range rs {
			out[i] = r.sample
		}
		return out
	}
	checkChars := func() {
		n := sys.Characterizations() - setupChars
		t.op(n == 0, "%d characterizations ran in the timed phase", n)
	}

	if !cfg.trace {
		// The clients run in rounds of a second, each one window, so
		// that the reference kernel runs between rounds while the
		// server is idle.
		var rs []reqSample
		var wins []window
		resetPeakRSS()
		wall := timedWindows(cfg.timed(), cal, &wins, nil, func(int) {
			c0 := cpuTime()
			round, _ := drive(min(time.Second, cfg.timed()), nil)
			w := window{cpu: cpuTime() - c0}
			for _, r := range round {
				w.gates += float64(r.gates)
			}
			wins = append(wins, w)
			rs = append(rs, round...)
		})
		checkChars()
		lat := make([]float64, len(rs))
		for i, r := range rs {
			lat[i] = ms(r.dur)
		}
		n := fmt.Sprintf("n=%d", len(lat))
		p99Note := fmt.Sprintf("%s beyond=%d", n, beyond(lat, 0.99))
		if beyond(lat, 0.99) < 10 {
			p99Note += " (fewer than 10 samples beyond: not a valid p99)"
		}
		gated, extra := endToEnd(setup, wins, samplesOf(rs), wall, cal, t)
		return &outcome{
			gated: gated,
			extra: append(extra,
				metric{Name: "serve_rps", Unit: "req/s", Value: float64(len(rs)) / wall.Seconds(), Note: n},
				metric{Name: "serve_p50_ms", Unit: "ms", Value: quantile(lat, 0.5), Note: n},
				metric{Name: "serve_p99_ms", Unit: "ms", Value: quantile(lat, 0.99), Note: p99Note},
				metric{Name: "serve_warmup_s", Unit: "s", Value: warmup.Seconds(), Note: "wall, one pass, not in setup_s"},
				failedPct(t),
			),
			tally: t,
		}, nil
	}

	// Traced run: half the time the mix with the server's stage
	// timings requested and its handler under spans. The other half
	// replays every distinct request layer by layer, in rounds, on
	// handles primed like the server's; each replay is paired with the
	// same calls made without spans, which measures the tracer's cost.
	m0, err := client.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	h0, x0 := memoCounters()
	rsT, _ := drive(cfg.timed()/2, tr)
	h1, x1 := memoCounters()
	runtime.ReadMemStats(&ms1)
	checkChars()
	m1, err := client.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}

	l := layers{tr: tr, sys: sys}
	bare := layers{sys: sys}
	named := make([]*engine.CompiledCircuit, len(circuits))
	inline := make([]*engine.CompiledCircuit, len(circuits))
	for i, c := range circuits {
		if named[i], err = engineHandle(c); err != nil {
			return nil, err
		}
		canon, err := canonical(c.Name, texts[i])
		if err != nil {
			return nil, err
		}
		if inline[i], err = engineHandle(canon); err != nil {
			return nil, err
		}
	}
	// Prime every handle as serd's are after its warm-up: one full
	// analysis per seed, whose strike call must find the sensitization
	// it was preceded by in the memo.
	for _, p := range pairs {
		for _, cc := range []*engine.CompiledCircuit{named[p.circuit], inline[p.circuit]} {
			var ck checks
			d, err := bare.analyze(0, 0, cc, sc.vectors, p.seed)
			if !ck.err(err) {
				ck.expect(d.memoHits == 1, "strike call registered %d memo hits, want 1 (sensitization)", d.memoHits)
			}
			ck.done(t, fmt.Sprintf("prime %s seed %d", circuits[p.circuit].Name, p.seed))
		}
	}
	in := layerInputs{setupReps: sc.setupReps, setupChars: setupChars, memoHits: h1 - h0, memoMisses: x1 - x0}
	var ov overhead
	replay := func(int) {
		for pi, p := range pairs {
			c := circuits[p.circuit]
			for j, k := range []reqKind{susByName, susInline} {
				op := tr.newOp()
				var ck checks
				cc := named[p.circuit]
				if k == susInline {
					_, err := l.parseCanon(op, 0, c.Name, texts[p.circuit])
					ck.err(err)
					cc = inline[p.circuit]
				}
				var d decomposed
				err := ov.pair(2*pi+j, func() error {
					_, err := bare.analyze(0, 0, cc, sc.vectors, p.seed)
					return err
				}, func() error {
					root := tr.begin("op.replica", op, 0)
					defer root.end()
					var err error
					d, err = l.analyze(op, root.id(), cc, sc.vectors, p.seed)
					return err
				})
				if !ck.err(err) {
					ck.expect(d.sensReused, "strike call did not reuse the memoized sensitization")
					ref := want[serveReq{pi, k}].u
					ck.expect(sameU(d.U, ref, cfg.injectWrongU), "decomposed U %v, served U %v", d.U, ref)
					in.analyses++
					in.gateVectors += float64(d.gates * sc.vectors)
					in.allocBytes += d.allocBytes
				}
				ck.done(t, fmt.Sprintf("replica %s %s seed %d", kindNames[k], c.Name, p.seed))
			}
		}
	}
	timedCycles(cfg.timed()/2, 0, nil, replay)
	in.overheadPct = ov.pct()

	// serd's own layer numbers from the traced requests.
	spans := tr.all()
	handler := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Name == "serd.handler" {
			handler[s.Op] = s.dur()
		}
	}
	var hMS, jobMS, transMS []float64
	stageSum := map[string]float64{}
	for _, r := range rsT {
		h := ms(handler[r.op])
		hMS = append(hMS, h)
		jobMS = append(jobMS, r.resp.jobMS)
		transMS = append(transMS, ms(r.dur)-h)
		if r.resp.timings != nil {
			for _, st := range r.resp.timings.Stages {
				stageSum[st.Stage] += st.MS
			}
		}
	}
	n := float64(max(len(rsT), 1))
	extra := []metric{
		{Name: "serd.handler_ms", Unit: "ms", Value: mean(hMS), Note: fmt.Sprintf("n=%d", len(rsT))},
		{Name: "serd.job_ms", Unit: "ms", Value: mean(jobMS)},
		{Name: "serd.overhead_ms", Unit: "ms", Value: mean(hMS) - mean(jobMS)},
		{Name: "serd.transport_ms", Unit: "ms", Value: mean(transMS)},
		{Name: "serd.alloc_mb_per_req", Unit: "MB", Value: float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / n},
		{Name: "serd.compiled_cache_hit_ratio", Unit: "ratio", Value: cacheHitRatio(m0, m1)},
		{Name: "serd.errors", Unit: "count", Value: float64(m1.Errors + m1.RequestsShed + m1.JobsRetried)},
	}
	for _, st := range []string{"sertopt.sizing", "strike.sources", "strike.electrical", "strike.reduce", "logicsim.sensitization"} {
		extra = append(extra, metric{Name: "serd.stage." + st + "_ms", Unit: "ms", Value: stageSum[st] / n})
	}
	return &outcome{
		gated: layerMetrics(spans, in),
		extra: append(extra, failedPct(t)),
		tally: t,
		spans: spans,
	}, nil
}

// analyzeOnce analyzes c in-process on a handle of its own, which is
// dropped afterwards, and returns U.
func analyzeOnce(ctx context.Context, sys *ser.System, c *ser.Circuit, opts ser.AnalysisOptions) (float64, error) {
	h, err := ser.Compile(c)
	if err != nil {
		return 0, err
	}
	rep, err := sys.AnalyzeCompiledContext(ctx, h, opts)
	if err != nil {
		return 0, err
	}
	return rep.U, nil
}

// canonical is the circuit serd analyzes for an inline netlist: the
// canonical form of the parsed text.
func canonical(name, text string) (*ser.Circuit, error) {
	parsed, err := ser.ParseBench(strings.NewReader(text), name)
	if err != nil {
		return nil, err
	}
	c, _, err := ser.CanonicalContent(parsed)
	return c, err
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cacheHitRatio is the compiled-cache hit ratio between two /metrics
// snapshots.
func cacheHitRatio(a, b *serclient.MetricsResponse) float64 {
	hits := b.CompiledCache.Hits - a.CompiledCache.Hits
	misses := b.CompiledCache.Misses - a.CompiledCache.Misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
