package aserta

import (
	"testing"

	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/strike"
)

// reLib is shared by the Reanalyze tests and the fuzz target, so each
// cell class is characterized once per test binary.
var reLib = charlib.NewLibrary(devmodel.Tech70nm(), charlib.CoarseGrid())

// menuCell draws one of SERTOPT's menu cells (size 1, 2 or 4, VDD 0.8
// or 1.0 V, Vth 0.2 or 0.3 V) for gate g.
func menuCell(g *ckt.Gate, rng *stats.RNG) charlib.Cell {
	cell := charlib.Cell{Type: g.Type, Fanin: len(g.Fanin)}
	cell.Size = []float64{1, 2, 4}[rng.Intn(3)]
	cell.L = reLib.Tech.Lmin
	cell.VDD = []float64{0.8, 1.0}[rng.Intn(2)]
	cell.Vth = []float64{0.2, 0.3}[rng.Intn(2)]
	return cell
}

// perturb returns a copy of cells with n randomly chosen logic gates
// moved to random menu cells.
func perturb(c *ckt.Circuit, cells Assignment, rng *stats.RNG, n int) Assignment {
	out := append(Assignment(nil), cells...)
	for k := 0; k < n; k++ {
		g := c.Gates[rng.Intn(len(c.Gates))]
		if !g.Type.IsSource() {
			out[g.ID] = menuCell(g, rng)
		}
	}
	return out
}

// requireReanalyzeExact scores cells against base incrementally and
// requires U and every Ui to equal a fresh AnalyzeCompiled bit for bit.
// It returns the fresh analysis.
func requireReanalyzeExact(t *testing.T, cc *engine.CompiledCircuit, base *Analysis, cells Assignment, label string) *Analysis {
	t.Helper()
	ui, u, err := base.Reanalyze(reLib, cells)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, err := AnalyzeCompiled(cc, reLib, cells, base.Config)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if u != want.U {
		t.Fatalf("%s: incremental U = %.17g, full analysis U = %.17g", label, u, want.U)
	}
	for i := range want.Ui {
		if ui[i] != want.Ui[i] {
			t.Fatalf("%s: gate %s: incremental Ui = %.17g, full analysis Ui = %.17g",
				label, cc.Circuit().Gates[i].Name, ui[i], want.Ui[i])
		}
	}
	return want
}

// affectedCount counts the gates whose fanout reaches a gate with a
// delay that differs between two analyses: the cones an incremental
// walk re-propagates.
func affectedCount(cc *engine.CompiledCircuit, a, b *Analysis) int {
	c := cc.Circuit()
	affected := make([]bool, len(c.Gates))
	n := 0
	for _, i := range cc.ReverseTopoOrder() {
		for _, s := range c.Gates[i].Fanout {
			if affected[s] || a.Delays[s] != b.Delays[s] {
				affected[i] = true
				n++
				break
			}
		}
	}
	return n
}

// TestReanalyzeMatchesAnalyzeCompiled drives the candidate cost
// oracle the way SERTOPT does — many candidates scored back to back
// against one baseline — on ISCAS-85 profiles and generated netlists,
// and requires every result to equal a fresh full analysis bit for
// bit. The candidates cover random cell moves, a PO gate whose
// generated width changes, a move affecting more than half the gates
// (the full-pass fallback), a return to the baseline cells, and
// interleaved gradient probes sharing the same scratch.
func TestReanalyzeMatchesAnalyzeCompiled(t *testing.T) {
	var circuits []*ckt.Circuit
	for _, name := range []string{"c432", "c499", "c880", "c1355"} {
		c, err := gen.ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	for seed := uint64(1); seed <= 2; seed++ {
		c, err := gen.Generate(gen.Profile{Name: "gen", PIs: 12, POs: 6, Gates: 90, Depth: 9, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	for _, c := range circuits {
		cc, err := engine.Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		cells := NominalAssignment(c, reLib, 2)
		cfg := Config{Vectors: 1000, Seed: 5}
		base, err := AnalyzeCompiled(cc, reLib, cells, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// An independent analysis of the same baseline, for checking the
		// interleaved gradient probes.
		ref, err := AnalyzeCompiled(cc, reLib, cells, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(uint64(len(c.Gates)))
		probe := func(label string) {
			t.Helper()
			var id int
			for id = rng.Intn(len(c.Gates)); c.Gates[id].Type.IsSource(); id = rng.Intn(len(c.Gates)) {
			}
			d := append([]float64(nil), base.Delays...)
			d[id] += 2e-12
			got, err := base.RecomputeU(reLib, d)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.RecomputeU(reLib, d)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s %s: gradient probe after candidates U = %.17g, on a fresh baseline %.17g", c.Name, label, got, want)
			}
		}

		for trial := 0; trial < 6; trial++ {
			requireReanalyzeExact(t, cc, base, perturb(c, cells, rng, 1+trial), c.Name+" random")
			if trial%2 == 1 {
				probe("random")
			}
		}

		// A PO gate resized: its generated width (and flux) change, and
		// so do its fanin gates' loads and delays.
		po := c.Outputs()[rng.Intn(len(c.Outputs()))]
		cand := append(Assignment(nil), cells...)
		cand[po].Size = 4
		fresh := requireReanalyzeExact(t, cc, base, cand, c.Name+" PO resize")
		if fresh.GenWidth[po] == base.GenWidth[po] {
			t.Fatalf("%s: resizing PO %s left its generated width unchanged", c.Name, c.Gates[po].Name)
		}

		// Every gate at low VDD: more than half the gates are affected,
		// so the full pass runs.
		cand = append(Assignment(nil), cells...)
		for _, g := range c.Gates {
			if !g.Type.IsSource() {
				cand[g.ID].VDD = 0.8
			}
		}
		fresh = requireReanalyzeExact(t, cc, base, cand, c.Name+" global")
		if n := affectedCount(cc, base, fresh); 2*n <= len(c.Gates) {
			t.Fatalf("%s: global move affected %d of %d gates; the fallback needs more than half", c.Name, n, len(c.Gates))
		}
		probe("after fallback")
		requireReanalyzeExact(t, cc, base, perturb(c, cells, rng, 3), c.Name+" after fallback")

		// The baseline's own cells reproduce it exactly.
		ui, u, err := base.Reanalyze(reLib, cells)
		if err != nil {
			t.Fatal(err)
		}
		if u != base.U {
			t.Fatalf("%s: baseline cells U = %.17g, baseline %.17g", c.Name, u, base.U)
		}
		for i := range ui {
			if ui[i] != base.Ui[i] {
				t.Fatalf("%s: baseline cells Ui[%d] = %.17g, baseline %.17g", c.Name, i, ui[i], base.Ui[i])
			}
		}
	}
}

// TestReanalyzeLeanBaseline scores candidates against a Lean analysis,
// which keeps no WS arena: every candidate takes the full pass and
// must still equal a fresh analysis bit for bit.
func TestReanalyzeLeanBaseline(t *testing.T) {
	c, err := gen.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	cc, err := engine.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	cells := NominalAssignment(c, reLib, 2)
	base, err := AnalyzeCompiled(cc, reLib, cells, Config{Vectors: 1000, Seed: 5, Lean: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(17)
	for trial := 0; trial < 3; trial++ {
		requireReanalyzeExact(t, cc, base, perturb(c, cells, rng, 2+trial), "lean")
	}
}

// TestReanalyzeFluxOnly changes only the reducer's flux weights, with
// delays and generated widths at the baseline: no row moves, and the
// marked gates' contributions must equal a full reduction with the
// new weights bit for bit.
func TestReanalyzeFluxOnly(t *testing.T) {
	c, err := gen.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	cells := NominalAssignment(c, reLib, 2)
	base, err := Analyze(c, reLib, cells, Config{Vectors: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	flux := append([]float64(nil), base.Flux...)
	moved := make([]bool, len(flux))
	rng := stats.NewRNG(3)
	for k := 0; k < 10; k++ {
		id := rng.Intn(len(c.Gates))
		if !c.Gates[id].Type.IsSource() {
			flux[id] *= 2
			moved[id] = true
		}
	}
	clock := base.Config.ClockPeriod
	ui, u := base.delta.Reanalyze(base.Delays, base.GenWidth, func(i int, wij []float64) float64 {
		return strike.GateU(flux[i], wij, clock)
	}, moved)
	wantUi, wantU := strike.Reduce(c, flux, base.Wij, clock)
	if u != wantU {
		t.Fatalf("flux-only U = %.17g, full reduction %.17g", u, wantU)
	}
	for i := range wantUi {
		if ui[i] != wantUi[i] {
			t.Fatalf("flux-only Ui[%d] = %.17g, full reduction %.17g", i, ui[i], wantUi[i])
		}
	}
}

// FuzzReanalyze differentially fuzzes the incremental candidate
// scoring: on a random generated netlist, a sequence of random cell
// moves (from one gate to most of the circuit) scored against one
// baseline must equal fresh full analyses bit for bit.
func FuzzReanalyze(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(40), uint8(6), uint64(3), uint8(1))
	f.Add(uint64(9), uint8(3), uint8(120), uint8(11), uint64(8), uint8(40))
	f.Fuzz(func(t *testing.T, genSeed uint64, pis, gates, depth uint8, cellSeed uint64, moves uint8) {
		p := gen.Profile{
			Name:  "fuzz",
			PIs:   2 + int(pis%24),
			POs:   1 + int(pis%8),
			Gates: 8 + int(gates%160),
			Depth: 2 + int(depth%16),
			Seed:  genSeed,
		}
		c, err := gen.Generate(p)
		if err != nil {
			t.Skip() // unsatisfiable profile, not an analysis bug
		}
		cc, err := engine.Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		cells := NominalAssignment(c, reLib, 2)
		base, err := AnalyzeCompiled(cc, reLib, cells, Config{Vectors: 256, Seed: cellSeed})
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(cellSeed)
		for k := 0; k < 3; k++ {
			n := 1 + int(moves)*(k+1)%(2*len(c.Gates))
			requireReanalyzeExact(t, cc, base, perturb(c, cells, rng, n), "fuzz")
		}
	})
}
