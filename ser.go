// Package ser is the public API of this reproduction of "Soft-Error
// Tolerance Analysis and Optimization of Nanometer Circuits" (Dhillon,
// Diril, Chatterjee — DATE 2005).
//
// It wraps the two tools the paper presents —
//
//   - ASERTA: fast lookup-table-driven soft-error tolerance analysis
//     ("unreliability" U = expected total strike-induced glitch width
//     reaching the latches, Eqs. 1–4), and
//   - SERTOPT: delay-assignment-variation optimization of gate sizes,
//     channel lengths, supply voltages and threshold voltages under a
//     path-delay constraint (nullspace of the topology matrix, Eq. 5
//     cost)
//
// — together with every substrate they need: a 70 nm alpha-power-law
// device model, a transistor-level transient simulator used for both
// table characterization and golden-reference validation, ISCAS-85
// netlist parsing and profile-matched synthetic benchmarks, logic
// simulation, and the experiment drivers regenerating each figure and
// table of the paper.
//
// Quickstart:
//
//	sys := ser.NewSystem(ser.CoarseCharacterization)
//	c, _ := ser.Benchmark("c432")
//	rep, _ := sys.Analyze(c, ser.AnalysisOptions{})
//	fmt.Printf("U = %.1f, softest gate %s\n", rep.U, rep.Softest(1)[0].Name)
//
// Analyzing one netlist repeatedly? Compile it once — the handle
// carries every netlist-derived artifact (topological orders, cone
// arenas, memoized sensitization statistics) and is safe to share
// across concurrent Analyze/AnalyzeSequential/Optimize calls:
//
//	h, _ := ser.Compile(c)
//	rep, _ = sys.AnalyzeCompiled(h, ser.AnalysisOptions{})
//	opt, _ := sys.OptimizeCompiled(h, ser.OptimizeOptions{})
package ser

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/aserta"
	"repro/internal/bench"
	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/harden"
	"repro/internal/seq"
	"repro/internal/sertopt"
	"repro/internal/strike"
	"repro/internal/trace"
)

// Circuit is the public alias for the gate-level netlist type.
type Circuit = ckt.Circuit

// Compiled is a reusable analysis handle: the circuit plus every
// artifact derivable from the netlist alone (topological orders,
// levelization, fanout-cone arenas, PO/flop column maps and — lazily,
// keyed by vector count and seed — the sensitization statistics).
// Compile once, then run any number of Analyze/AnalyzeSequential/
// Optimize calls against the handle, concurrently if desired: the
// expensive netlist-only precomputation is paid once and shared, and
// results are bit-identical to the compile-on-the-fly entry points.
//
// A Compiled handle is immutable and safe for concurrent use. Do not
// mutate the underlying Circuit after compiling it.
type Compiled struct {
	c  *Circuit
	cc *engine.CompiledCircuit
}

// Compile builds the reusable analysis handle for a circuit. It fails
// on structurally invalid netlists, so a handle is always analyzable.
func Compile(c *Circuit) (*Compiled, error) {
	cc, err := engine.Compile(c)
	if err != nil {
		return nil, err
	}
	return &Compiled{c: c, cc: cc}, nil
}

// Circuit returns the underlying netlist (read-only).
func (h *Compiled) Circuit() *Circuit { return h.c }

// TMR returns a compiled handle for the triple-modular-redundancy
// hardened version of the circuit (shared primary inputs, triplicated
// logic, a 2-level AND-OR majority voter per primary output) — the
// classical defense the paper argues against, kept as the comparison
// baseline for SERTOPT. The input handle is not modified.
func TMR(h *Compiled) (*Compiled, error) {
	res, err := harden.TMR(h.c)
	if err != nil {
		return nil, err
	}
	return Compile(res.Circuit)
}

// CharacterizationLevel selects how densely the cell library is
// characterized (transient simulations per gate class).
type CharacterizationLevel int

const (
	// DefaultCharacterization uses the paper-scale grid (sizes 1–8,
	// five channel lengths, three VDDs, three Vths, four loads).
	DefaultCharacterization CharacterizationLevel = iota
	// CoarseCharacterization uses a small grid for quick runs and CI.
	CoarseCharacterization
)

// System bundles a technology and a characterized cell library.
type System struct {
	Tech *devmodel.Tech
	Lib  *charlib.Library
}

// NewSystem creates a 70 nm system with a lazily characterized
// library.
func NewSystem(level CharacterizationLevel) *System {
	tech := devmodel.Tech70nm()
	grid := charlib.DefaultGrid()
	if level == CoarseCharacterization {
		grid = charlib.CoarseGrid()
	}
	return &System{Tech: tech, Lib: charlib.NewLibrary(tech, grid)}
}

// NewSystemWithCharges creates a system whose glitch-generation tables
// carry an injected-charge axis (the paper's stated future work),
// enabling Report.SpectrumU. charges lists the characterization points
// in coulombs, e.g. []float64{4e-15, 8e-15, 16e-15, 32e-15}.
func NewSystemWithCharges(level CharacterizationLevel, charges []float64) *System {
	s := NewSystem(level)
	grid := s.Lib.Grid
	grid.Charges = charges
	s.Lib = charlib.NewLibrary(s.Tech, grid)
	return s
}

// ChargeWeight pairs an injected charge with its flux weight in a
// strike spectrum.
type ChargeWeight = aserta.ChargeWeight

// ExponentialSpectrum discretizes the standard exponential
// charge-deposition spectrum: n points spanning [qMin, qMax]
// geometrically with weights ∝ exp(−Q/Q0), normalized to 1.
func ExponentialSpectrum(qMin, qMax, q0 float64, n int) []ChargeWeight {
	return aserta.ExponentialSpectrum(qMin, qMax, q0, n)
}

// SaveLibrary caches the characterized tables (JSON) so later runs
// skip re-characterization. The parent directory is created if needed
// and the write is atomic (temp file + rename), so a crashed or
// interrupted run can never leave a truncated cache that poisons the
// next run.
func (s *System) SaveLibrary(path string) error {
	dir := filepath.Dir(path)
	if dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	// CreateTemp uses 0600; restore the permissions os.Create would
	// have given the final file so other users can still read a cache
	// written by a privileged service.
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := s.Lib.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadLibrary restores tables cached by SaveLibrary.
func (s *System) LoadLibrary(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	lib, err := charlib.Load(f, s.Tech)
	if err != nil {
		return err
	}
	s.Lib = lib
	return nil
}

// Benchmark returns a built-in benchmark circuit: an ISCAS-85 member
// ("c17" ... "c7552", combinational) or an ISCAS-89 member ("s27" ...
// "s38417", sequential). The genuine c17 and s27 netlists are included
// verbatim; the larger suite members are profile-matched synthetic
// circuits (see DESIGN.md §2 for the substitution rationale).
func Benchmark(name string) (*Circuit, error) {
	if len(name) > 0 && name[0] == 's' {
		return gen.ISCAS89(name)
	}
	return gen.ISCAS85(name)
}

// BenchmarkNames lists available benchmark circuits: the combinational
// ISCAS-85 suite followed by the sequential ISCAS-89 suite.
func BenchmarkNames() []string {
	return append(gen.Names(), gen.SeqNames()...)
}

// Canonicalize returns the canonical structural form of a circuit:
// inputs and outputs in sorted-name order, gates in name-tie-broken
// topological order, operand order preserved. Netlists differing only
// in whitespace, comments or line order canonicalize to byte-identical
// circuits — and therefore to bit-identical analysis results.
func Canonicalize(c *Circuit) (*Circuit, error) { return bench.Canonicalize(c) }

// CanonicalKey returns a circuit's content address — "sha256:" plus
// the hex SHA-256 of its canonical .bench bytes — the key a serving
// tier uses to cache compiled circuits across requests.
func CanonicalKey(c *Circuit) (string, error) { return bench.ContentHash(c) }

// CanonicalContent returns the canonical form and the content address
// together, canonicalizing once — the per-request path of a serving
// tier (Canonicalize + CanonicalKey share one pass).
func CanonicalContent(c *Circuit) (*Circuit, string, error) { return bench.CanonicalContent(c) }

// CompiledCacheStats snapshots a CompiledCache's counters.
type CompiledCacheStats = engine.CacheStats

// CompiledCache is a bounded content-addressed cache of compiled
// circuits for a serving tier: keys are content addresses (CanonicalKey)
// or stable names, values are Compiled handles, eviction is LRU
// weighted by gate count, and concurrent misses for one key coalesce
// on a single build. Safe for concurrent use.
type CompiledCache struct {
	cache *engine.Cache
}

// NewCompiledCache creates a cache bounded by a total gate-record
// budget across all cached circuits (<= 0 selects 500,000 — roughly a
// hundred ISCAS-scale circuits).
func NewCompiledCache(budgetGates int64) *CompiledCache {
	return &CompiledCache{cache: engine.NewCache(budgetGates)}
}

// ArtifactCacheStats snapshots the persistent artifact store's
// counters (hits, misses, saves, corruption errors, bytes mapped).
type ArtifactCacheStats = engine.ArtifactStats

// NewCompiledCacheWithArtifacts creates a compiled-circuit cache
// backed by a persistent artifact directory: in-memory misses first
// try the on-disk compiled artifact for the key (mmap'd read-only
// where the platform allows), and successful builds are written back.
// A process restarting over a warm directory serves its first request
// for a known circuit without recompiling. Corrupt or foreign files
// are detected (checksummed, key-echoed), counted, removed and
// recompiled — never served.
func NewCompiledCacheWithArtifacts(budgetGates int64, dir string) (*CompiledCache, error) {
	store, err := engine.NewArtifactStore(dir)
	if err != nil {
		return nil, err
	}
	return &CompiledCache{cache: engine.NewCacheWithArtifacts(budgetGates, store)}, nil
}

// ArtifactsEnabled reports whether this cache is backed by a
// persistent artifact directory.
func (cc *CompiledCache) ArtifactsEnabled() bool { return cc.cache.Artifacts() != nil }

// ArtifactStats snapshots the persistent artifact store's counters;
// the zero value is returned when the cache has no artifact directory.
func (cc *CompiledCache) ArtifactStats() ArtifactCacheStats {
	if s := cc.cache.Artifacts(); s != nil {
		return s.Stats()
	}
	return ArtifactCacheStats{}
}

// Get returns the compiled handle for key, building (and compiling)
// the circuit at most once per cached lifetime: concurrent callers for
// one missing key block on a single build, and build errors are
// returned without being cached.
func (cc *CompiledCache) Get(key string, build func() (*Circuit, error)) (*Compiled, error) {
	h, err := cc.cache.Get(key, func() (*engine.CompiledCircuit, error) {
		c, err := build()
		if err != nil {
			return nil, err
		}
		return engine.Compile(c)
	})
	if err != nil {
		return nil, err
	}
	return &Compiled{c: h.Circuit(), cc: h}, nil
}

// Stats snapshots the hit/miss/eviction counters.
func (cc *CompiledCache) Stats() CompiledCacheStats { return cc.cache.Stats() }

// ParseBench reads an ISCAS-85/89 ".bench" netlist (DFF lines declare
// flip-flops; the result is a sequential circuit when any are
// present). It uses the streaming single-pass parser, which emits the
// circuit's flat arenas directly — bit-identical to the legacy
// object-graph parser (same gate IDs, same errors, same CanonicalKey)
// at a fraction of the allocations, which is what makes million-gate
// netlists loadable.
func ParseBench(r io.Reader, name string) (*Circuit, error) { return bench.ParseStream(r, name) }

// LoadBenchFile reads a ".bench" netlist from disk.
func LoadBenchFile(path string) (*Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return bench.ParseStream(f, trimExt(path))
}

// WriteBench emits a circuit in ".bench" format.
func WriteBench(w io.Writer, c *Circuit) error { return bench.Write(w, c) }

func trimExt(p string) string {
	base := p
	if i := lastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := lastIndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	return base
}

func lastIndexByte(s string, b byte) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// AnalysisOptions tune an ASERTA run.
type AnalysisOptions struct {
	// Vectors is the random-vector count for sensitization statistics
	// (default 10,000, as in the paper).
	Vectors int
	Seed    uint64
	// POLoad is the latch capacitance at each primary output (F).
	POLoad float64
	// Size sizes every gate uniformly when Cells is nil (default:
	// speed-driven baseline sizing).
	Cells aserta.Assignment
	// Lean runs the analysis in pooled scratch: U and the per-gate
	// report are bit-identical, but the report's Raw() analysis
	// retains no WS/Wij tables (SpectrumU is unavailable and
	// RecomputeU is non-incremental). It is off unless the caller sets
	// it (the serving tier does not); it cuts tens of MB of
	// per-request allocation on large circuits.
	Lean bool
	// Approx, when non-nil, switches to the sampled analysis mode:
	// U is estimated from independent vector batches with a Student-t
	// confidence interval and early termination (see ApproxOptions).
	// Nil — the default everywhere — runs the exact fixed-Vectors
	// analysis. Approximate reports are NOT bit-identical to exact
	// ones; regression gates and the serving tier default to exact.
	Approx *ApproxOptions
}

// GateReport is one gate's analysis summary.
type GateReport struct {
	Name string
	// U is the gate's unreliability contribution (Eq. 3).
	U float64
	// GenWidth is the strike-induced glitch width at the gate (s).
	GenWidth float64
	// Delay is the gate's propagation delay under its load (s).
	Delay float64
}

// Report is the public ASERTA result.
type Report struct {
	// U is the circuit unreliability (Eq. 4). In approximate mode it
	// is the mean over sampled batches.
	U float64
	// Gates lists per-gate results in netlist order.
	Gates []GateReport

	// Approx reports whether the sampled mode produced this report.
	// When true, [UCILow, UCIHigh] brackets U at the requested
	// Confidence, Batches counts the sampled batches and VectorsUsed
	// the total vectors actually simulated; exact reports leave all of
	// them zero.
	Approx          bool
	UCILow, UCIHigh float64
	Confidence      float64
	Batches         int
	VectorsUsed     int

	analysis *aserta.Analysis
}

// Softest returns the n highest-contribution gates, most unreliable
// first.
func (r *Report) Softest(n int) []GateReport {
	out := append([]GateReport(nil), r.Gates...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].U > out[j].U })
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// SusceptibilityEntry is one ranked per-gate susceptibility
// contribution: the gate's absolute Eq. 3 contribution, its share of
// the circuit total, and the cumulative share through its rank ("the
// top N gates carry CumShare of the circuit's susceptibility") —
// the selective-hardening shopping list.
type SusceptibilityEntry struct {
	Name string
	// U is the gate's absolute unreliability contribution.
	U float64
	// Share is U divided by the circuit total (0 when the total is not
	// positive).
	Share float64
	// CumShare is the cumulative share of this and every higher-ranked
	// gate.
	CumShare float64
}

// rankSusceptibility runs the strike pipeline's ranking over parallel
// name/U slices.
func rankSusceptibility(names []string, u []float64, total float64) []SusceptibilityEntry {
	ranked := strike.Rank(names, u, total)
	out := make([]SusceptibilityEntry, len(ranked))
	for i, e := range ranked {
		out[i] = SusceptibilityEntry{Name: e.Name, U: e.U, Share: e.Share, CumShare: e.CumShare}
	}
	return out
}

// Susceptibility returns the ranked per-gate contributions of the
// analysis — every gate, most susceptible first, with share and
// cumulative-share columns. The ranking is deterministic: ties keep
// netlist order.
func (r *Report) Susceptibility() []SusceptibilityEntry {
	names := make([]string, len(r.Gates))
	u := make([]float64, len(r.Gates))
	for i, g := range r.Gates {
		names[i], u[i] = g.Name, g.U
	}
	return rankSusceptibility(names, u, r.U)
}

// Raw exposes the underlying analysis for advanced use (sample tables,
// sensitization probabilities).
func (r *Report) Raw() *aserta.Analysis { return r.analysis }

// SpectrumU re-evaluates the circuit unreliability under a charge
// spectrum instead of the fixed 16 fC strike. The system must have
// been built with NewSystemWithCharges. It returns the weighted total
// and the per-charge unreliability values.
func (r *Report) SpectrumU(sys *System, spectrum []ChargeWeight) (float64, []float64, error) {
	return r.analysis.SpectrumU(sys.Lib, spectrum)
}

// Analyze runs ASERTA on the circuit with a speed-sized baseline
// assignment (or opts.Cells when provided), compiling the circuit on
// the fly. Callers analyzing one netlist repeatedly should Compile
// once and use AnalyzeCompiled.
func (s *System) Analyze(c *Circuit, opts AnalysisOptions) (*Report, error) {
	return s.AnalyzeContext(context.Background(), c, opts)
}

// AnalyzeContext is Analyze with cooperative cancellation: ctx is
// checked before each pipeline stage (characterization — per class —
// baseline sizing, and the analysis itself). A stage already running
// is not interrupted, so cancellation latency is bounded by the
// longest single stage, and a cancelled call leaves the shared
// library in a fully consistent state for concurrent callers.
func (s *System) AnalyzeContext(ctx context.Context, c *Circuit, opts AnalysisOptions) (*Report, error) {
	h, err := Compile(c)
	if err != nil {
		return nil, err
	}
	return s.AnalyzeCompiledContext(ctx, h, opts)
}

// AnalyzeCompiled runs ASERTA against a compiled handle: the
// netlist-derived precomputation (orders, cones, the sensitization
// simulation at the requested vectors/seed) is served from the handle,
// so warm analyses skip it entirely. Results are bit-identical to
// Analyze.
func (s *System) AnalyzeCompiled(h *Compiled, opts AnalysisOptions) (*Report, error) {
	return s.AnalyzeCompiledContext(context.Background(), h, opts)
}

// AnalyzeCompiledContext is AnalyzeCompiled with cooperative
// cancellation (same stage boundaries as AnalyzeContext).
func (s *System) AnalyzeCompiledContext(ctx context.Context, h *Compiled, opts AnalysisOptions) (*Report, error) {
	c := h.c
	if c.Sequential() {
		return nil, fmt.Errorf("ser: circuit %q has flip-flops; use AnalyzeSequential", c.Name)
	}
	if opts.POLoad == 0 {
		opts.POLoad = engine.DefaultPOLoad
	}
	rec := trace.RecorderFrom(ctx)
	endChar := trace.StartStage(rec, "charlib.precharacterize")
	err := s.Lib.PrecharacterizeContext(ctx, charlib.CircuitClasses(c))
	endChar()
	if err != nil {
		return nil, err
	}
	cells := opts.Cells
	if cells == nil {
		endSizing := trace.StartStage(rec, "sertopt.sizing")
		cells, err = sertopt.InitialSizing(c, s.Lib, 0, opts.POLoad)
		endSizing()
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Approx != nil {
		return s.analyzeApprox(ctx, h, opts, cells)
	}
	an, err := aserta.AnalyzeCompiled(h.cc, s.Lib, cells, aserta.Config{
		Vectors: opts.Vectors,
		Seed:    opts.Seed,
		POLoad:  opts.POLoad,
		Spans:   rec,
		Lean:    opts.Lean,
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{U: an.U, analysis: an}
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		rep.Gates = append(rep.Gates, GateReport{
			Name:     g.Name,
			U:        an.Ui[g.ID],
			GenWidth: an.GenWidth[g.ID],
			Delay:    an.Delays[g.ID],
		})
	}
	return rep, nil
}

// SequentialOptions tune a sequential (ISCAS-89) analysis.
type SequentialOptions struct {
	// Cycles is the multi-cycle fault-propagation horizon (default 4):
	// a strike captured into a flop is chased through this many frames.
	Cycles int
	// Vectors is the random-vector count (default 10,000).
	Vectors int
	Seed    uint64
	// POLoad is the latch capacitance at every frame output — genuine
	// POs and flop D pins alike (default 2 fF).
	POLoad float64
	// ClockPeriod is the Eq. 3 latching-window clock (default 300 ps).
	ClockPeriod float64
	// FluxPerHour scales the FIT conversion (default seq's nominal).
	FluxPerHour float64
	// InitState is the flop reset state in Circuit.DFFs() order; nil
	// means all zeros.
	InitState []bool
}

// SequentialGateReport is one gate's sequential summary.
type SequentialGateReport = seq.GateReport

// SequentialFlopReport is one flip-flop's summary.
type SequentialFlopReport = seq.FlopReport

// SequentialReport is the sequential analysis result.
type SequentialReport struct {
	// U is the per-cycle circuit unreliability (ps units); DirectU
	// counts strike glitches latched at POs in the strike cycle,
	// LatchedU those captured into flops and re-emitted later.
	U, DirectU, LatchedU float64
	// FIT is the whole-circuit soft-error rate.
	FIT float64
	// Cycles and Flops echo the analysis shape.
	Cycles, Flops int
	// Gates lists per-gate results in netlist order; FlopReports per-flop
	// capture pressure and fault visibility.
	Gates       []SequentialGateReport
	FlopReports []SequentialFlopReport

	raw *seq.Result
}

// Softest returns the n highest-contribution gates, most unreliable
// first.
func (r *SequentialReport) Softest(n int) []SequentialGateReport {
	out := append([]SequentialGateReport(nil), r.Gates...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].U > out[j].U })
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// Raw exposes the underlying seq result (frame analysis, flop
// columns).
func (r *SequentialReport) Raw() *seq.Result { return r.raw }

// Susceptibility returns the ranked per-gate contributions of the
// sequential analysis (direct + latched U per gate), most susceptible
// first, with share and cumulative-share columns.
func (r *SequentialReport) Susceptibility() []SusceptibilityEntry {
	names := make([]string, len(r.Gates))
	u := make([]float64, len(r.Gates))
	for i, g := range r.Gates {
		names[i], u[i] = g.Name, g.U
	}
	return rankSusceptibility(names, u, r.U)
}

// AnalyzeSequential runs the multi-cycle sequential SER analysis on a
// circuit with flip-flops. Combinational circuits are legal inputs:
// the result then has no latched component and U equals the
// combinational Eq. 4 unreliability.
func (s *System) AnalyzeSequential(c *Circuit, opts SequentialOptions) (*SequentialReport, error) {
	return s.AnalyzeSequentialContext(context.Background(), c, opts)
}

// AnalyzeSequentialContext is AnalyzeSequential with cooperative
// cancellation at the characterization boundary and between analysis
// stages.
func (s *System) AnalyzeSequentialContext(ctx context.Context, c *Circuit, opts SequentialOptions) (*SequentialReport, error) {
	h, err := Compile(c)
	if err != nil {
		return nil, err
	}
	return s.AnalyzeSequentialCompiledContext(ctx, h, opts)
}

// AnalyzeSequentialCompiled runs the sequential analysis against a
// compiled handle: the combinational frame is built and compiled once
// per handle and its sensitization statistics are memoized per
// (vectors, seed), so warm analyses skip both. Results are
// bit-identical to AnalyzeSequential.
func (s *System) AnalyzeSequentialCompiled(h *Compiled, opts SequentialOptions) (*SequentialReport, error) {
	return s.AnalyzeSequentialCompiledContext(context.Background(), h, opts)
}

// AnalyzeSequentialCompiledContext is AnalyzeSequentialCompiled with
// cooperative cancellation.
func (s *System) AnalyzeSequentialCompiledContext(ctx context.Context, h *Compiled, opts SequentialOptions) (*SequentialReport, error) {
	c := h.c
	endChar := trace.StartStage(trace.RecorderFrom(ctx), "charlib.precharacterize")
	err := s.Lib.PrecharacterizeContext(ctx, charlib.CircuitClasses(c))
	endChar()
	if err != nil {
		return nil, err
	}
	res, err := seq.AnalyzeCompiledContext(ctx, h.cc, s.Lib, seq.Options{
		Cycles:      opts.Cycles,
		Vectors:     opts.Vectors,
		Seed:        opts.Seed,
		POLoad:      opts.POLoad,
		ClockPeriod: opts.ClockPeriod,
		FluxPerHour: opts.FluxPerHour,
		InitState:   opts.InitState,
	})
	if err != nil {
		return nil, err
	}
	return &SequentialReport{
		U:           res.U,
		DirectU:     res.DirectU,
		LatchedU:    res.LatchedU,
		FIT:         res.FIT,
		Cycles:      res.Cycles,
		Flops:       res.Flops,
		Gates:       res.Gates,
		FlopReports: res.FlopReports,
		raw:         res,
	}, nil
}

// OptimizeOptions tune a SERTOPT run.
type OptimizeOptions struct {
	// VDDs and Vths are the designer's voltage menus (paper Table 1).
	VDDs []float64
	Vths []float64
	// Iterations, MaxBasis and Vectors trade quality for runtime.
	Iterations int
	MaxBasis   int
	Vectors    int
	Seed       uint64
	// Method is "sqp" (default) or "anneal".
	Method string
	// Weights override the Eq. 5 cost weights.
	Weights *sertopt.Weights
}

// OptimizeResult is the public SERTOPT outcome.
type OptimizeResult struct {
	// UDecrease is the fractional unreliability reduction (Table 1).
	UDecrease float64
	// AreaRatio, EnergyRatio, DelayRatio compare optimized/baseline.
	AreaRatio, EnergyRatio, DelayRatio float64
	// BaselineU and OptimizedU are the absolute unreliability values.
	BaselineU, OptimizedU float64

	raw *sertopt.Result
}

// Raw exposes the full optimizer result (assignments, history).
func (r *OptimizeResult) Raw() *sertopt.Result { return r.raw }

// Susceptibility returns the ranked per-gate contributions of the
// baseline and optimized assignments, for before/after comparison of
// where the optimizer moved the soft spots.
func (r *OptimizeResult) Susceptibility() (baseline, optimized []SusceptibilityEntry) {
	rank := func(an *aserta.Analysis) []SusceptibilityEntry {
		var names []string
		var u []float64
		for _, g := range an.Circuit.Gates {
			if g.Type == ckt.Input {
				continue
			}
			names = append(names, g.Name)
			u = append(u, an.Ui[g.ID])
		}
		return rankSusceptibility(names, u, an.U)
	}
	return rank(r.raw.BaseAnalysis), rank(r.raw.OptAnalysis)
}

// Optimize runs SERTOPT on the circuit, compiling it on the fly.
// Callers holding a compiled handle should use OptimizeCompiled.
func (s *System) Optimize(c *Circuit, opts OptimizeOptions) (*OptimizeResult, error) {
	return s.OptimizeContext(context.Background(), c, opts)
}

// OptimizeContext is Optimize with cooperative cancellation at the
// characterization boundary (the dominant cost on a cold library) and
// before the optimizer starts.
func (s *System) OptimizeContext(ctx context.Context, c *Circuit, opts OptimizeOptions) (*OptimizeResult, error) {
	h, err := Compile(c)
	if err != nil {
		return nil, err
	}
	return s.OptimizeCompiledContext(ctx, h, opts)
}

// OptimizeCompiled runs SERTOPT against a compiled handle, sharing the
// handle's memoized sensitization with every other analysis of the
// same netlist. Results are bit-identical to Optimize.
func (s *System) OptimizeCompiled(h *Compiled, opts OptimizeOptions) (*OptimizeResult, error) {
	return s.OptimizeCompiledContext(context.Background(), h, opts)
}

// OptimizeCompiledContext is OptimizeCompiled with cooperative
// cancellation.
func (s *System) OptimizeCompiledContext(ctx context.Context, h *Compiled, opts OptimizeOptions) (*OptimizeResult, error) {
	c := h.c
	if c.Sequential() {
		return nil, fmt.Errorf("ser: circuit %q has flip-flops; SERTOPT optimizes combinational logic only", c.Name)
	}
	rec := trace.RecorderFrom(ctx)
	endChar := trace.StartStage(rec, "charlib.precharacterize")
	err := s.Lib.PrecharacterizeContext(ctx, charlib.CircuitClasses(c))
	endChar()
	if err != nil {
		return nil, err
	}
	if len(opts.VDDs) == 0 {
		opts.VDDs = []float64{0.8, 1.0}
	}
	if len(opts.Vths) == 0 {
		opts.Vths = []float64{0.2, 0.3}
	}
	sopts := sertopt.Options{
		Match:      sertopt.MatchConfig{VDDs: opts.VDDs, Vths: opts.Vths},
		Iterations: opts.Iterations,
		MaxBasis:   opts.MaxBasis,
		Vectors:    opts.Vectors,
		Seed:       opts.Seed,
		Method:     opts.Method,
	}
	if opts.Weights != nil {
		sopts.Weights = *opts.Weights
	}
	// One span for the whole optimizer: its cost loop re-enters the
	// pipeline thousands of times through RecomputeU and Reanalyze,
	// which are far too hot to instrument per call.
	endOpt := trace.StartStage(rec, "sertopt.optimize")
	res, err := sertopt.OptimizeCompiled(h.cc, s.Lib, sopts)
	endOpt()
	if err != nil {
		return nil, err
	}
	out := &OptimizeResult{
		UDecrease:  res.UDecrease(),
		BaselineU:  res.BaseAnalysis.U,
		OptimizedU: res.OptAnalysis.U,
		raw:        res,
	}
	out.AreaRatio, out.EnergyRatio, out.DelayRatio = res.Ratios()
	return out, nil
}

// Characterizations reports how many cell-class characterizations the
// system's library has executed so far. Concurrent requests for one
// class coalesce (singleflight) and count once; a serving tier exports
// the value as its cache-miss counter.
func (s *System) Characterizations() int64 { return s.Lib.Characterizations() }

// LibraryCache shares characterized systems across a serving tier: one
// System per characterization level, created lazily and reused by
// every request. The per-class singleflight inside charlib.Library
// guarantees that concurrent requests hitting an uncharacterized level
// block on a single characterization instead of racing to duplicate
// it.
type LibraryCache struct {
	mu      sync.Mutex
	systems map[CharacterizationLevel]*System
}

// NewLibraryCache creates an empty cache.
func NewLibraryCache() *LibraryCache {
	return &LibraryCache{systems: make(map[CharacterizationLevel]*System)}
}

// System returns the shared System for the level, creating it on first
// use. The returned System is safe for concurrent Analyze/Optimize.
func (lc *LibraryCache) System(level CharacterizationLevel) *System {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	s, ok := lc.systems[level]
	if !ok {
		s = NewSystem(level)
		lc.systems[level] = s
	}
	return s
}

// Put installs (or replaces) the shared System for a level — e.g. one
// restored from a disk cache via LoadLibrary.
func (lc *LibraryCache) Put(level CharacterizationLevel, s *System) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.systems[level] = s
}

// Summary formats a one-line circuit description.
func Summary(c *Circuit) string {
	s := c.Summary()
	if s.DFFs > 0 {
		return fmt.Sprintf("%s: %d PIs, %d POs, %d flops, %d gates, %d edges, depth %d",
			s.Name, s.PIs, s.POs, s.DFFs, s.Gates-s.DFFs, s.Edges, s.Levels)
	}
	return fmt.Sprintf("%s: %d PIs, %d POs, %d gates, %d edges, depth %d",
		s.Name, s.PIs, s.POs, s.Gates, s.Edges, s.Levels)
}
