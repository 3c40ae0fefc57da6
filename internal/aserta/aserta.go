// Package aserta implements ASERTA, the paper's soft-error tolerance
// analysis tool (§3). Given a circuit, a characterized cell library
// and a per-gate cell assignment, it estimates every gate's
// contribution U_i to circuit "unreliability" — the expected total
// width of strike-induced glitches reaching the primary outputs — and
// the circuit total U = Σ U_i (Eqs. 3–4).
//
// The estimate combines the paper's three masking models:
//
//   - logical masking: sensitization probabilities P_ij from 10,000
//     random vectors plus the per-successor split π_isj of Eq. 2;
//   - electrical masking: the Eq. 1 glitch attenuation applied in one
//     reverse-topological pass over 10 sample glitch widths (§3.2);
//   - latching-window masking: capture probability proportional to
//     the glitch width arriving at the PO, scaled by gate area Z_i.
//
// ASERTA is the combinational configuration of the shared
// strike-propagation pipeline (internal/strike): EnumerateSources →
// ElectricalFilter → Reduce, with no flop-capture window stage and the
// optimizer's incremental re-reduction exposed through RecomputeU and
// Reanalyze.
package aserta

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/logicsim"
	"repro/internal/strike"
	"repro/internal/trace"
)

// DefaultSampleWidths is the paper's sample-width count (§3.2: "the
// expected output glitch widths, WSijk, for 10 sample glitch widths").
const DefaultSampleWidths = engine.DefaultSampleWidths

// Config controls an ASERTA analysis.
type Config struct {
	// Vectors is the random-vector count for sensitization
	// probabilities (default 10,000, as in the paper).
	Vectors int
	// Seed feeds the deterministic RNG.
	Seed uint64
	// SampleWidths is the number of sample glitch widths used in the
	// electrical-masking pass (default 10).
	SampleWidths int
	// POLoad is the latch input capacitance on each primary output (F).
	POLoad float64
	// WideWidth is the largest sample width, standing in for the
	// Lemma-1 "very wide glitch". Default 2.56 ns.
	WideWidth float64
	// ClockPeriod caps each glitch width's latching contribution: the
	// paper's latching-window masking makes capture probability
	// proportional to glitch duration, which saturates at one clock
	// period (a glitch wider than the cycle is simply certain to be
	// latched). Default 300 ps; set from the circuit's own clock when
	// known (SERTOPT uses 1.2x the baseline critical path).
	ClockPeriod float64
	// PrecomputedSens, when non-nil, is reused instead of re-running
	// logic simulation. Sensitization statistics depend only on the
	// netlist, not on the cell assignment, so SERTOPT computes them
	// once per circuit and shares them across every cost evaluation.
	PrecomputedSens *logicsim.Result
	// FullRecomputeEvery bounds incremental drift: every N-th
	// RecomputeU call returns the exact netlist-order sum
	// (bit-identical to RecomputeUFull) instead of the baseline U plus
	// the changed contributions (default 64; negative disables the
	// cadence).
	FullRecomputeEvery int
	// Lean skips retaining the per-analysis WS/Wij arenas: the
	// electrical pass runs in pooled scratch that is returned when the
	// analysis completes, so a caller that needs only U and Ui stops
	// paying a ~nGates·nPOs·K allocation (tens of MB on c7552) per
	// analysis. Off unless set; the Approx batches set it.
	// U and Ui are bit-identical to a full analysis; Analysis.WS and
	// Analysis.Wij are nil, SpectrumU is unavailable, and RecomputeU
	// falls back to an exact full re-evaluation per call (no
	// incremental delta baseline is retained).
	Lean bool
	// Spans, when non-nil, receives one span per pipeline stage
	// (sources, sensitization, electrical, reduce). Timing is
	// observational only — it never alters numerics or RNG streams —
	// and the nil default costs nothing beyond the global stage
	// histograms. RecomputeU is deliberately not instrumented: it is
	// the optimizer's inner loop.
	Spans *trace.Recorder
}

// withDefaults fills zero fields with the shared engine defaults.
func (cfg Config) withDefaults() Config {
	p := engine.Params{
		Vectors:      cfg.Vectors,
		SampleWidths: cfg.SampleWidths,
		POLoad:       cfg.POLoad,
		ClockPeriod:  cfg.ClockPeriod,
		WideWidth:    cfg.WideWidth,
	}
	p.Normalize()
	cfg.Vectors = p.Vectors
	cfg.SampleWidths = p.SampleWidths
	cfg.POLoad = p.POLoad
	cfg.ClockPeriod = p.ClockPeriod
	cfg.WideWidth = p.WideWidth
	if cfg.FullRecomputeEvery == 0 {
		cfg.FullRecomputeEvery = 64
	}
	return cfg
}

// Assignment maps each gate ID to its assigned cell. Entries for
// primary-input pseudo-gates are ignored.
type Assignment []charlib.Cell

// NominalAssignment assigns every gate the paper's baseline cell
// (L=70nm, VDD=1V, Vth=0.2V) at the given relative size.
func NominalAssignment(c *ckt.Circuit, lib *charlib.Library, size float64) Assignment {
	cells := make(Assignment, len(c.Gates))
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		cells[g.ID] = charlib.Cell{Type: g.Type, Fanin: len(g.Fanin)}
		cells[g.ID].Size = size
		cells[g.ID].L = lib.Tech.Lmin
		cells[g.ID].VDD = lib.Tech.VDDnom
		cells[g.ID].Vth = lib.Tech.Vthnom
	}
	return cells
}

// Analysis is the full ASERTA result.
type Analysis struct {
	Circuit *ckt.Circuit
	Cells   Assignment
	Config  Config

	// cc is the compiled artifact the analysis ran against.
	cc *engine.CompiledCircuit

	// Loads[i] is the capacitive load on gate i's output (F).
	Loads []float64
	// Delays[i] is gate i's propagation delay under its load (s).
	Delays []float64
	// GenWidth[i] is the strike-induced glitch width w_i at gate i (s).
	GenWidth []float64
	// Flux[i] is gate i's Eq. 3 flux weight Z_i.
	Flux []float64
	// Sens carries static and sensitization probabilities.
	Sens *logicsim.Result
	// Wij[i][k] is the expected glitch width at the k-th PO for a
	// strike at gate i (paper's W_ij).
	Wij [][]float64
	// Ui[i] is gate i's unreliability contribution (Eq. 3).
	Ui []float64
	// U is the circuit unreliability (Eq. 4).
	U float64

	// Samples is the sample-width ladder ws_k of the §3.2 pass and WS
	// the full WS_ijk table (WS[i][j][k]); exposed for the Lemma-1
	// property test and for ablation experiments. Rows are views into
	// one flat arena.
	Samples []float64
	WS      [][][]float64

	// prop is the shared pipeline's ElectricalFilter stage; delta its
	// incremental re-reduce configuration. RecomputeU shares the
	// delta's scratch arenas and is therefore not safe for concurrent
	// use on one Analysis.
	prop  *strike.Propagator
	delta *strike.Delta
	// wsFlat/wijFlat back the exposed WS/Wij views.
	wsFlat, wijFlat []float64
}

// Attenuate applies the paper's Equation 1: a glitch of width wi
// passing a gate of delay d emerges with width 0 (wi < d),
// 2(wi−d) (d ≤ wi ≤ 2d), or wi (wi > 2d).
func Attenuate(wi, d float64) float64 { return strike.Attenuate(wi, d) }

// wsPool recycles the electrical-pass scratch arenas of Lean analyses:
// the WS table alone is nGates·nPOs·K floats (tens of MB on c7552),
// and a serving tier would otherwise allocate and zero one per
// request. Buffers are returned un-zeroed; Propagator.Run is written
// to tolerate stale scratch.
type floatPool struct{ p sync.Pool }

func (fp *floatPool) get(n int) []float64 {
	if v := fp.p.Get(); v != nil {
		if s := v.([]float64); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]float64, n)
}

func (fp *floatPool) put(s []float64) { fp.p.Put(s[:0]) } //nolint:staticcheck // slice header boxing is one small alloc

var wsPool floatPool

// GateLoads computes each gate's output load: the input capacitance of
// every fanout pin plus the PO latch load where applicable.
func GateLoads(c *ckt.Circuit, lib *charlib.Library, cells Assignment, poLoad float64) ([]float64, error) {
	return strike.GateLoads(c, lib, cells, poLoad)
}

// Analyze runs the full ASERTA flow, compiling the circuit on the
// fly. Callers analyzing one netlist repeatedly should compile once
// (engine.Compile) and use AnalyzeCompiled, which additionally shares
// the memoized sensitization statistics across analyses.
func Analyze(c *ckt.Circuit, lib *charlib.Library, cells Assignment, cfg Config) (*Analysis, error) {
	cc, err := engine.Compile(c)
	if err != nil {
		return nil, err
	}
	return AnalyzeCompiled(cc, lib, cells, cfg)
}

// AnalyzeCompiled runs the full ASERTA flow against a compiled
// circuit. Results are bit-identical to Analyze; the netlist-derived
// work (topological orders, fanout-cone arenas, and — unless
// cfg.PrecomputedSens overrides it — the sensitization simulation) is
// served from the handle.
func AnalyzeCompiled(cc *engine.CompiledCircuit, lib *charlib.Library, cells Assignment, cfg Config) (*Analysis, error) {
	cfg = cfg.withDefaults()
	c := cc.Circuit()
	if c.Sequential() {
		return nil, fmt.Errorf("aserta: circuit %q has flip-flops; analyze its combinational frame (internal/seq)", c.Name)
	}
	if len(cells) != len(c.Gates) {
		return nil, fmt.Errorf("aserta: %d cells for %d gates", len(cells), len(c.Gates))
	}
	a := &Analysis{Circuit: c, cc: cc, Cells: cells, Config: cfg}

	// Stage 1: EnumerateSources — loads, delays, generated widths and
	// flux weights from the cell assignment.
	endSources := trace.StartStage(cfg.Spans, "strike.sources")
	src, err := strike.EnumerateSources(cc, lib, cells, cfg.POLoad)
	if err != nil {
		return nil, err
	}
	a.Loads, a.Delays, a.GenWidth, a.Flux = src.Loads, src.Delays, src.GenWidth, src.Flux
	endSources()

	if cfg.PrecomputedSens != nil {
		a.Sens = cfg.PrecomputedSens
	} else {
		// Memoized on the handle: repeated analyses of one compiled
		// circuit (the serving tier's warm path, SERTOPT's cost loop,
		// the sequential engine's frames) run the simulation once per
		// (vectors, seed) pair.
		endSens := trace.StartStage(cfg.Spans, "logicsim.sensitization")
		a.Sens, err = logicsim.Sensitization(cc, cfg.Vectors, cfg.Seed)
		endSens()
		if err != nil {
			return nil, err
		}
	}

	// Stage 2: ElectricalFilter — the §3.2 reverse-topological pass
	// for the baseline delays, publishing the WS/Wij views.
	endElec := trace.StartStage(cfg.Spans, "strike.electrical")
	a.Samples = cfg.sampleWidths()
	a.prop = strike.NewPropagator(cc, a.Sens, a.GenWidth, a.Samples)
	nGates := len(c.Gates)
	nPOs := len(c.Outputs())
	K := len(a.Samples)
	if cfg.Lean {
		// Pooled scratch: Run zero-fills every wij entry and never
		// reads an unwritten ws row, so stale pool contents are safe.
		ws := wsPool.get(nGates * nPOs * K)
		wij := wsPool.get(nGates * nPOs)
		a.prop.Run(a.Delays, ws, wij)
		endElec()
		endReduce := trace.StartStage(cfg.Spans, "strike.reduce")
		a.Ui, a.U = strike.ReduceFlat(c, a.Flux, wij, nPOs, cfg.ClockPeriod)
		a.delta = a.prop.NewDelta(a.Delays, nil, nil, a.Ui, a.U, a.uiOf)
		wsPool.put(ws)
		wsPool.put(wij)
		endReduce()
		return a, nil
	}
	a.wsFlat = make([]float64, nGates*nPOs*K)
	a.wijFlat = make([]float64, nGates*nPOs)
	a.prop.Run(a.Delays, a.wsFlat, a.wijFlat)
	endElec()

	// Publish the arena through the historical slice-of-slices views.
	rows := make([][]float64, nGates*nPOs)
	for r := range rows {
		rows[r] = a.wsFlat[r*K : (r+1)*K]
	}
	a.WS = make([][][]float64, nGates)
	a.Wij = make([][]float64, nGates)
	for i := 0; i < nGates; i++ {
		a.WS[i] = rows[i*nPOs : (i+1)*nPOs]
		a.Wij[i] = a.wijFlat[i*nPOs : (i+1)*nPOs]
	}

	// Stage 3: LatchingWindow + Reduce — Eq. 3 per-gate contributions
	// and the Eq. 4 circuit total, with the incremental delta
	// configuration armed for RecomputeU.
	endReduce := trace.StartStage(cfg.Spans, "strike.reduce")
	a.Ui, a.U = strike.Reduce(c, a.Flux, a.Wij, cfg.ClockPeriod)
	a.delta = a.prop.NewDelta(a.Delays, a.wsFlat, a.wijFlat, a.Ui, a.U, a.uiOf)
	endReduce()
	return a, nil
}

// sampleWidths returns the geometric ladder of sample glitch widths
// used by the electrical-masking pass, ending at the wide width.
func (cfg Config) sampleWidths() []float64 {
	k := cfg.SampleWidths
	ws := make([]float64, k)
	// Geometric from 5 ps to WideWidth.
	lo := 5e-12
	ratio := 1.0
	if k > 1 {
		ratio = math.Pow(cfg.WideWidth/lo, 1/float64(k-1))
	}
	w := lo
	for i := 0; i < k; i++ {
		ws[i] = w
		w *= ratio
	}
	ws[k-1] = cfg.WideWidth
	return ws
}

// uiOf returns gate i's Eq. 3 unreliability contribution for a Wij
// row — the GateReducer the incremental delta re-applies per changed
// gate.
func (a *Analysis) uiOf(i int, wij []float64) float64 {
	return strike.GateU(a.Flux[i], wij, a.Config.ClockPeriod)
}

// RecomputeU re-evaluates the §3.2 electrical pass with an alternative
// per-gate delay vector, keeping loads, generated widths and
// sensitization statistics fixed, and returns the resulting circuit
// unreliability. This is the cheap delay-sensitivity oracle SERTOPT's
// gradient seeding uses, and it is incremental: only the fanin cones
// of gates whose delays differ from the analysis baseline are
// re-propagated, with unaffected rows served from the baseline arena
// (strike.Delta). The delta evaluation always starts from the pristine
// Analyze baseline, so error cannot accumulate across calls; as a
// belt-and-braces bound, every Config.FullRecomputeEvery-th call (and
// any call affecting more than half the gates) returns the exact
// RecomputeUFull value instead. Not safe for concurrent use on one
// Analysis (shared scratch arenas).
func (a *Analysis) RecomputeU(lib *charlib.Library, delays []float64) (float64, error) {
	return a.delta.Recompute(delays, a.Config.FullRecomputeEvery)
}

// Reanalyze scores an alternative cell assignment against this
// analysis as the baseline and returns its per-gate contributions and
// circuit total, bit-identical to AnalyzeCompiled's Ui and U for the
// same cells and Config. Only what the new cells changed is redone
// (strike.Delta.Reanalyze): the rows their changed delays reach, the
// step (iv) interpolation of changed generated widths, and the Eq. 3
// contribution of every gate whose row or flux weight moved. This is
// SERTOPT's candidate cost oracle. It shares RecomputeU's scratch and
// is likewise not safe for concurrent use on one Analysis.
func (a *Analysis) Reanalyze(lib *charlib.Library, cells Assignment) ([]float64, float64, error) {
	src, err := strike.EnumerateSources(a.cc, lib, cells, a.Config.POLoad)
	if err != nil {
		return nil, 0, err
	}
	clock := a.Config.ClockPeriod
	reflux := make([]bool, len(src.Flux))
	for i, f := range src.Flux {
		reflux[i] = f != a.Flux[i]
	}
	ui, u := a.delta.Reanalyze(src.Delays, src.GenWidth, func(i int, wij []float64) float64 {
		return strike.GateU(src.Flux[i], wij, clock)
	}, reflux)
	return ui, u, nil
}

// RecomputeUFull is RecomputeU without the incremental shortcut: the
// complete electrical pass runs against the given delays (into scratch
// arenas — the analysis baseline is untouched). It is the exactness
// reference for the incremental path and its periodic fallback.
func (a *Analysis) RecomputeUFull(delays []float64) (float64, error) {
	return a.delta.RecomputeFull(delays)
}
