package main

// The traced run's calls into the program's layers. Each call below
// is wrapped in one span named after the layer function it times, so
// per-layer numbers are measured from outside the program. Apart from
// serd.New, every call into an internal package is made from this
// file; experiments.Fig3 is also called by the untraced paper
// workload, because ser has no Fig. 3 entry point.

import (
	"context"
	"net/http"
	"runtime"
	"strconv"
	"strings"

	"repro"
	"repro/internal/aserta"
	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/logicsim"
	"repro/internal/seq"
	"repro/internal/serd"
	"repro/internal/sertopt"
	"repro/internal/strike"
	"repro/internal/trace"
)

// layers binds the traced run's tracer to the system under test. A
// layers with a nil tracer makes the same calls without spans.
type layers struct {
	tr  *tracer
	sys *ser.System
}

// precharacterize characterizes every gate class of the circuits.
func (l layers) precharacterize(ctx context.Context, circuits []*ser.Circuit) error {
	var classes []charlib.Class
	for _, c := range circuits {
		classes = append(classes, charlib.CircuitClasses(c)...)
	}
	s := l.tr.begin("charlib.precharacterize", l.tr.newOp(), 0)
	defer s.end()
	return l.sys.Lib.PrecharacterizeContext(ctx, classes)
}

// compile is ser.Compile under an engine.compile span.
func (l layers) compile(c *ser.Circuit) (*ser.Compiled, error) {
	s := l.tr.begin("engine.compile", l.tr.newOp(), 0)
	defer s.end()
	return ser.Compile(c)
}

// engineHandle is a second compiled handle of c for the decomposed
// path, separate from the ser handle so that neither shares the
// other's memo.
func engineHandle(c *ser.Circuit) (*engine.CompiledCircuit, error) {
	return engine.Compile(c)
}

// parseCanon parses .bench text and computes its content hash, the
// work serd does before its compiled-cache lookup for an inline
// netlist.
func (l layers) parseCanon(op, parent int64, name, text string) (string, error) {
	s := l.tr.begin("bench.parse_canon", op, parent)
	defer s.end()
	c, err := ser.ParseBench(strings.NewReader(text), name)
	if err != nil {
		return "", err
	}
	return ser.CanonicalKey(c)
}

// decomposed is one analysis run layer by layer.
type decomposed struct {
	U          float64
	gates      int
	memoHits   int64
	memoMisses int64
	allocBytes uint64
	top10Share float64
	// sensReused reports that the strike call ran on the very
	// sensitization result the call before it left in the memo.
	sensReused bool
}

// analyze runs ASERTA as its layers: sensitization on the handle
// (which primes the memo), baseline sizing, the strike pipeline, and
// the ranking. The strike call must find the sensitization in the
// memo: the caller checks memoHits.
func (l layers) analyze(op, parent int64, cc *engine.CompiledCircuit, vectors int, seed uint64) (decomposed, error) {
	var out decomposed
	c := cc.Circuit()
	s := l.tr.begin("logicsim.sensitization", op, parent)
	sens, err := logicsim.Sensitization(cc, vectors, seed)
	s.end()
	if err != nil {
		return out, err
	}
	s = l.tr.begin("sertopt.sizing", op, parent)
	cells, err := sertopt.InitialSizing(c, l.sys.Lib, 0, engine.DefaultPOLoad)
	s.end()
	if err != nil {
		return out, err
	}
	var m0, m1 runtime.MemStats
	h0, x0 := memoCounters()
	runtime.ReadMemStats(&m0)
	s = l.tr.begin("aserta.strike", op, parent)
	an, err := aserta.AnalyzeCompiled(cc, l.sys.Lib, cells, aserta.Config{
		Vectors: vectors, Seed: seed, POLoad: engine.DefaultPOLoad,
	})
	s.end()
	runtime.ReadMemStats(&m1)
	h1, x1 := memoCounters()
	if err != nil {
		return out, err
	}
	out.U, out.memoHits, out.memoMisses = an.U, h1-h0, x1-x0
	out.sensReused = an.Sens == sens
	out.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	names := make([]string, 0, len(c.Gates))
	u := make([]float64, 0, len(c.Gates))
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue // primary inputs carry no contribution
		}
		names, u = append(names, g.Name), append(u, an.Ui[g.ID])
	}
	out.gates = len(names)
	s = l.tr.begin("strike.rank", op, parent)
	ranked := strike.Rank(names, u, an.U)
	s.end()
	if len(ranked) >= 10 {
		out.top10Share = ranked[9].CumShare
	}
	return out, nil
}

// seqAnalyze runs the sequential engine on the handle with the
// options ser.System.AnalyzeSequentialCompiledContext passes it. The
// combinational frame's sensitization is run first under its own
// span, so the seq.analyze span holds the rest of the flow: sizing,
// the strike pipeline on the frame and the multi-cycle fault chase.
// It returns U and the frame's gate count.
func (l layers) seqAnalyze(ctx context.Context, op, parent int64, cc *engine.CompiledCircuit, cycles, vectors int, seed uint64) (float64, int, error) {
	fr, err := seq.CompiledFrame(cc)
	if err != nil {
		return 0, 0, err
	}
	s := l.tr.begin("logicsim.sensitization", op, parent)
	_, err = logicsim.Sensitization(fr.CC, vectors, seed)
	s.end()
	if err != nil {
		return 0, 0, err
	}
	s = l.tr.begin("seq.analyze", op, parent)
	defer s.end()
	res, err := seq.AnalyzeCompiledContext(ctx, cc, l.sys.Lib, seq.Options{Cycles: cycles, Vectors: vectors, Seed: seed})
	if err != nil {
		return 0, 0, err
	}
	frameGates := fr.CC.Circuit().NumGates() - len(fr.CC.Circuit().Inputs())
	return res.U, frameGates, nil
}

// optimize runs SERTOPT on the handle with the options
// ser.System.OptimizeCompiledContext passes it.
func (l layers) optimize(op, parent int64, cc *engine.CompiledCircuit, o optSpec) (*sertopt.Result, error) {
	s := l.tr.begin("sertopt.optimize", op, parent)
	defer s.end()
	return sertopt.OptimizeCompiled(cc, l.sys.Lib, sertopt.Options{
		Match:      sertopt.MatchConfig{VDDs: o.vdds, Vths: o.vths},
		Iterations: o.iters,
		MaxBasis:   o.basis,
		Vectors:    o.vectors,
		Seed:       o.seed,
	})
}

// rowResult is one Table 1 row run layer by layer.
type rowResult struct {
	base      decomposed
	dec, cost float64
	evals     int
}

// optimizeRow runs one Table 1 row on a freshly compiled handle: the
// baseline analysis layer by layer, whose sensitization SERTOPT then
// finds in the handle's memo, and the optimizer.
func (l layers) optimizeRow(op, parent int64, c *ser.Circuit, o optSpec) (rowResult, error) {
	var out rowResult
	cc, err := engineHandle(c)
	if err != nil {
		return out, err
	}
	if out.base, err = l.analyze(op, parent, cc, o.vectors, o.seed); err != nil {
		return out, err
	}
	res, err := l.optimize(op, parent, cc, o)
	if err != nil {
		return out, err
	}
	out.dec, out.cost, out.evals = res.UDecrease(), res.Cost, res.Evaluations
	return out, nil
}

// checkOptimizerUSums applies checkUSum to a SERTOPT result's baseline
// and optimized analyses.
func checkOptimizerUSums(ck *checks, r *sertopt.Result, inject bool) {
	for _, an := range []*aserta.Analysis{r.BaseAnalysis, r.OptAnalysis} {
		var u []float64
		for _, g := range an.Circuit.Gates {
			if g.Type != ckt.Input {
				u = append(u, an.Ui[g.ID])
			}
		}
		checkUSum(ck, u, an.U, inject)
	}
}

// fig3Spec is one Fig. 3 run at bench scale.
type fig3Spec struct {
	vectors, maxGates, goldenVectors int
	seed, goldenSeed                 uint64
}

// fig3 regenerates Fig. 3 and returns the ASERTA-vs-golden Pearson
// correlation.
func (l layers) fig3(op, parent int64, c *ser.Circuit, f fig3Spec) (float64, error) {
	s := l.tr.begin("experiments.fig3", op, parent)
	defer s.end()
	res, err := experiments.Fig3(c, l.sys.Lib, experiments.Fig3Config{
		Depth:    5,
		Vectors:  f.vectors,
		Seed:     f.seed,
		MaxGates: f.maxGates,
		Golden:   experiments.GoldenConfig{Vectors: f.goldenVectors, Seed: f.goldenSeed},
	})
	if err != nil {
		return 0, err
	}
	return res.Correlation, nil
}

// memoCounters reads the process-wide compiled-handle memo counters.
func memoCounters() (hits, misses int64) {
	for _, c := range trace.Counters() {
		switch c.Name {
		case "engine.memo.hit":
			hits = c.Value
		case "engine.memo.miss":
			misses = c.Value
		}
	}
	return hits, misses
}

// Headers carrying a traced request's operation and parent span IDs
// from the benchmark's client transport to its handler wrapper.
const (
	hdrOp     = "X-Serbench-Op"
	hdrParent = "X-Serbench-Parent"
)

// tracedHandler wraps (*serd.Server).ServeHTTP in a serd.handler span
// for requests the traced client phase marks with an operation ID.
type tracedHandler struct {
	srv *serd.Server
	tr  *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
	if op == 0 || h.tr == nil {
		h.srv.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
	s := h.tr.begin("serd.handler", op, parent)
	h.srv.ServeHTTP(w, r)
	s.end()
}

type opKey struct{}

// opIDs is the (operation, parent span) pair a traced request carries.
type opIDs struct{ op, parent int64 }

func withOp(ctx context.Context, op, parent int64) context.Context {
	return context.WithValue(ctx, opKey{}, opIDs{op, parent})
}

// opTransport stamps a traced request's IDs into its headers.
type opTransport struct{ base http.RoundTripper }

func (t opTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ids, ok := r.Context().Value(opKey{}).(opIDs)
	if !ok {
		return t.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(hdrOp, strconv.FormatInt(ids.op, 10))
	r.Header.Set(hdrParent, strconv.FormatInt(ids.parent, 10))
	return t.base.RoundTrip(r)
}
