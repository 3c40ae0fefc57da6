package aserta

import (
	"math"
	"sync"
	"testing"

	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/logicsim"
)

var (
	libOnce sync.Once
	testLib *charlib.Library
)

func lib() *charlib.Library {
	libOnce.Do(func() {
		testLib = charlib.NewLibrary(devmodel.Tech70nm(), charlib.CoarseGrid())
	})
	return testLib
}

func analyzeC17(t testing.TB, cfg Config) *Analysis {
	t.Helper()
	c := gen.C17()
	cells := NominalAssignment(c, lib(), 2)
	a, err := Analyze(c, lib(), cells, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAttenuateEquation1(t *testing.T) {
	d := 10.0
	cases := []struct{ wi, want float64 }{
		{0, 0}, {5, 0}, {9.999, 0}, // wi < d: killed
		{10, 0},              // boundary
		{15, 10},             // 2(15-10)
		{20, 20},             // boundary: 2(20-10)=20=wi
		{25, 25}, {100, 100}, // wi > 2d: unchanged
	}
	for _, c := range cases {
		if got := Attenuate(c.wi, d); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Attenuate(%g, %g) = %g, want %g", c.wi, d, got, c.want)
		}
	}
}

func TestAttenuateContinuity(t *testing.T) {
	// Eq. 1 is continuous at wi=d and wi=2d.
	d := 7.0
	if a, b := Attenuate(d-1e-9, d), Attenuate(d+1e-9, d); math.Abs(a-b) > 1e-6 {
		t.Errorf("discontinuity at wi=d: %g vs %g", a, b)
	}
	if a, b := Attenuate(2*d-1e-9, d), Attenuate(2*d+1e-9, d); math.Abs(a-b) > 1e-6 {
		t.Errorf("discontinuity at wi=2d: %g vs %g", a, b)
	}
}

func TestAnalyzeC17Basics(t *testing.T) {
	a := analyzeC17(t, Config{Vectors: 5000, Seed: 1})
	if a.U <= 0 {
		t.Fatal("circuit unreliability must be positive")
	}
	c := a.Circuit
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			if a.Ui[g.ID] != 0 {
				t.Errorf("PI %s has nonzero Ui", g.Name)
			}
			continue
		}
		if a.Ui[g.ID] < 0 {
			t.Errorf("gate %s Ui = %g < 0", g.Name, a.Ui[g.ID])
		}
		if a.Delays[g.ID] <= 0 {
			t.Errorf("gate %s delay = %g", g.Name, a.Delays[g.ID])
		}
		if a.GenWidth[g.ID] <= 0 {
			t.Errorf("gate %s generated width = %g", g.Name, a.GenWidth[g.ID])
		}
	}
	// Total is the sum of contributions.
	sum := 0.0
	for _, u := range a.Ui {
		sum += u
	}
	if math.Abs(sum-a.U)/a.U > 1e-9 {
		t.Errorf("U = %g but ΣUi = %g", a.U, sum)
	}
}

// Lemma 1: for the widest sample width ww (wide enough to pass every
// gate unattenuated), WS_ij(ww) = ww · P_ij.
func TestLemma1WideGlitch(t *testing.T) {
	a := analyzeC17(t, Config{Vectors: 20000, Seed: 2})
	c := a.Circuit
	K := len(a.Samples)
	ww := a.Samples[K-1]
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		for j := range a.WS[g.ID] {
			got := a.WS[g.ID][j][K-1]
			want := ww * a.Sens.Pij[g.ID][j]
			if math.Abs(got-want) > 1e-9*math.Max(1, want) && math.Abs(got-want) > ww*1e-6 {
				t.Errorf("Lemma 1 violated at gate %s PO %d: WS=%g, ww*Pij=%g",
					g.Name, j, got, want)
			}
		}
	}
}

// Lemma 1 as a property over random circuits.
func TestLemma1RandomCircuits(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		c, err := gen.Generate(gen.Profile{
			Name: "rand", PIs: 8, POs: 3, Gates: 30, Depth: 6, Seed: seed, InvFrac: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		cells := NominalAssignment(c, lib(), 2)
		a, err := Analyze(c, lib(), cells, Config{Vectors: 4000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		K := len(a.Samples)
		ww := a.Samples[K-1]
		for _, g := range c.Gates {
			if g.Type == ckt.Input {
				continue
			}
			for j := range a.WS[g.ID] {
				got := a.WS[g.ID][j][K-1]
				want := ww * a.Sens.Pij[g.ID][j]
				if math.Abs(got-want) > ww*1e-6 {
					t.Fatalf("seed %d: Lemma 1 violated at %s PO %d: %g vs %g",
						seed, g.Name, j, got, want)
				}
			}
		}
	}
}

func TestPOGateDirectWidth(t *testing.T) {
	// Step (ii): a PO gate's W_jj is its generated width, other
	// columns zero.
	a := analyzeC17(t, Config{Vectors: 2000, Seed: 3})
	c := a.Circuit
	for _, po := range c.Outputs() {
		col, _ := a.Sens.POColumn(po)
		if a.Wij[po][col] != a.GenWidth[po] {
			t.Errorf("PO %s W_jj = %g, want generated width %g",
				c.Gates[po].Name, a.Wij[po][col], a.GenWidth[po])
		}
		for j := range a.Wij[po] {
			if j != col && a.Wij[po][j] != 0 {
				t.Errorf("PO %s W to other PO %d = %g, want 0", c.Gates[po].Name, j, a.Wij[po][j])
			}
		}
	}
}

func TestNoPathMeansZeroWidth(t *testing.T) {
	a := analyzeC17(t, Config{Vectors: 2000, Seed: 4})
	c := a.Circuit
	id10, _ := c.GateByName("10")
	id23, _ := c.GateByName("23")
	col, _ := a.Sens.POColumn(id23)
	if a.Wij[id10][col] != 0 {
		t.Errorf("gate 10 has no path to 23 but W = %g", a.Wij[id10][col])
	}
}

func TestUnreliabilityScalesWithArea(t *testing.T) {
	// Eq. 3: U_i ∝ Z_i. Doubling every gate's size increases the flux
	// factor; with identical masking the per-gate contribution of a PO
	// gate should grow roughly with area (the PO gate's width term is
	// its own generated width, which shrinks for bigger gates, so use
	// the explicit Z weighting check instead: Ui / (Z·ΣWij) == 1).
	a := analyzeC17(t, Config{Vectors: 2000, Seed: 5})
	c := a.Circuit
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		sum := 0.0
		for _, w := range a.Wij[g.ID] {
			sum += w
		}
		z := a.Cells[g.ID].Area(lib().Tech)
		want := z * sum / 1e-12
		if math.Abs(a.Ui[g.ID]-want) > 1e-9*math.Max(1, want) {
			t.Errorf("gate %s: Ui = %g, want Z·ΣW = %g", g.Name, a.Ui[g.ID], want)
		}
	}
}

func TestAnalyzeCellCountMismatch(t *testing.T) {
	c := gen.C17()
	if _, err := Analyze(c, lib(), nil, Config{}); err == nil {
		t.Fatal("cell count mismatch accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Vectors != 10000 || cfg.SampleWidths != 10 {
		t.Fatalf("defaults = %+v", cfg)
	}
	ws := cfg.sampleWidths()
	if len(ws) != 10 {
		t.Fatalf("sample widths = %d", len(ws))
	}
	for i := 1; i < len(ws); i++ {
		if ws[i] <= ws[i-1] {
			t.Fatal("sample widths must increase")
		}
	}
	if ws[len(ws)-1] != cfg.WideWidth {
		t.Fatal("last sample width must be the wide width")
	}
}

func TestDeterministicAnalysis(t *testing.T) {
	a1 := analyzeC17(t, Config{Vectors: 3000, Seed: 42})
	a2 := analyzeC17(t, Config{Vectors: 3000, Seed: 42})
	if a1.U != a2.U {
		t.Fatalf("analysis not deterministic: %g vs %g", a1.U, a2.U)
	}
}

// TestAnalyzeSharesSensitizationMemo checks that an analysis reuses
// the very sensitization result logicsim.Sensitization memoizes on the
// handle at the same (vectors, seed), instead of simulating again.
func TestAnalyzeSharesSensitizationMemo(t *testing.T) {
	c := gen.C17()
	cc := engine.MustCompile(c)
	sens, err := logicsim.Sensitization(cc, 3000, 42)
	if err != nil {
		t.Fatal(err)
	}
	an, err := AnalyzeCompiled(cc, lib(), NominalAssignment(c, lib(), 2), Config{Vectors: 3000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if an.Sens != sens {
		t.Fatal("analysis did not reuse the memoized sensitization")
	}
}

func TestMoreVectorsStableU(t *testing.T) {
	// U estimated with 2k and 20k vectors should agree within a few
	// percent (Monte-Carlo convergence sanity).
	a1 := analyzeC17(t, Config{Vectors: 2000, Seed: 6})
	a2 := analyzeC17(t, Config{Vectors: 20000, Seed: 7})
	if rel := math.Abs(a1.U-a2.U) / a2.U; rel > 0.10 {
		t.Fatalf("U unstable across vector counts: %g vs %g (rel %g)", a1.U, a2.U, rel)
	}
}

func BenchmarkAnalyzeC432(b *testing.B) {
	c, err := gen.ISCAS85("c432")
	if err != nil {
		b.Fatal(err)
	}
	cells := NominalAssignment(c, lib(), 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(c, lib(), cells, Config{Vectors: 10000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
