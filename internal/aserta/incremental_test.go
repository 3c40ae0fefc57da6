package aserta

import (
	"math"
	"testing"

	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/gen"
	"repro/internal/stats"
)

// TestRecomputeUIncrementalMatchesFull drives the incremental delta
// path with single-gate and multi-gate delay perturbations on c432 and
// checks it against the exact full re-evaluation to 1e-12 relative.
func TestRecomputeUIncrementalMatchesFull(t *testing.T) {
	c, err := gen.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	lib := charlib.NewLibrary(devmodel.Tech70nm(), charlib.CoarseGrid())
	cells := NominalAssignment(c, lib, 2)
	an, err := Analyze(c, lib, cells, Config{Vectors: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	rng := stats.NewRNG(99)
	check := func(name string, delays []float64) {
		t.Helper()
		inc, err := an.RecomputeU(lib, delays)
		if err != nil {
			t.Fatal(err)
		}
		full, err := an.RecomputeUFull(delays)
		if err != nil {
			t.Fatal(err)
		}
		tol := 1e-12 * math.Max(math.Abs(full), 1)
		if math.Abs(inc-full) > tol {
			t.Errorf("%s: incremental U = %.17g, full U = %.17g (|Δ| = %g > %g)",
				name, inc, full, math.Abs(inc-full), tol)
		}
	}

	// Unchanged delays: must short-circuit to the stored U.
	u, err := an.RecomputeU(lib, an.Delays)
	if err != nil {
		t.Fatal(err)
	}
	if u != an.U {
		t.Errorf("unchanged delays: U = %g, want stored %g", u, an.U)
	}

	// Single-gate perturbations across the circuit.
	for trial := 0; trial < 20; trial++ {
		id := rng.Intn(len(c.Gates))
		if c.Gates[id].Type == ckt.Input {
			continue
		}
		d := append([]float64(nil), an.Delays...)
		d[id] *= 1 + 0.25*rng.Float64()
		check("single-gate", d)
	}

	// Small random subsets.
	for trial := 0; trial < 5; trial++ {
		d := append([]float64(nil), an.Delays...)
		for n := 0; n < 6; n++ {
			id := rng.Intn(len(c.Gates))
			d[id] *= 1 + 0.5*rng.Float64()
		}
		check("subset", d)
	}

	// Global perturbation (trips the all-affected fallback to full).
	d := make([]float64, len(an.Delays))
	for i, v := range an.Delays {
		d[i] = 1.5 * v
	}
	check("global", d)

	// The analysis baseline must be untouched by any of the above.
	if u, err := an.RecomputeU(lib, an.Delays); err != nil || u != an.U {
		t.Errorf("baseline corrupted: U = %g err = %v, want %g", u, err, an.U)
	}
}

// TestRecomputeUFullCadence forces both triggers of the exact result
// — the call cadence and a perturbation affecting more than half the
// gates — and requires each to equal RecomputeUFull bit for bit, and
// the cadence value to agree with the delta sum of the same probe.
func TestRecomputeUFullCadence(t *testing.T) {
	c, err := gen.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	lib := charlib.NewLibrary(devmodel.Tech70nm(), charlib.CoarseGrid())
	cells := NominalAssignment(c, lib, 2)
	an, err := Analyze(c, lib, cells, Config{Vectors: 1000, Seed: 3, FullRecomputeEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	exact := func(label string, d []float64) float64 {
		t.Helper()
		got, err := an.RecomputeU(lib, d)
		if err != nil {
			t.Fatal(err)
		}
		want, err := an.RecomputeUFull(d)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: RecomputeU = %.17g, RecomputeUFull = %.17g", label, got, want)
		}
		return got
	}

	// Cadence 1, gates whose fanin cones (the gates their delays
	// affect) stay within half the circuit, so only the cadence selects
	// the exact sum.
	var probes []int
	for _, g := range c.Gates {
		if n := faninConeSize(c, g.ID); !g.Type.IsSource() && n >= 10 && 2*n <= len(c.Gates) {
			probes = append(probes, g.ID)
		}
	}
	if len(probes) < 10 {
		t.Fatalf("only %d gates have a fanin cone of 10 gates to half the circuit", len(probes))
	}
	d := append([]float64(nil), an.Delays...)
	for _, id := range probes {
		d[id] *= 1.3
		exact("cadence", d)
		d[id] = an.Delays[id]
	}
	// The exact sum agrees with the delta sum of the same probe.
	d[probes[0]] *= 1.3
	uFullPath := exact("cadence", d)
	an.Config.FullRecomputeEvery = -1 // cadence disabled: delta path
	uIncPath, err := an.RecomputeU(lib, d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(uFullPath-uIncPath) > 1e-12*math.Max(uFullPath, 1) {
		t.Errorf("cadence full path U = %.17g, incremental U = %.17g", uFullPath, uIncPath)
	}

	// Cadence off, every delay moved: the more-than-half rule selects
	// the exact sum.
	for i := range d {
		d[i] = 1.1 * an.Delays[i]
	}
	exact("more than half affected", d)
}

// faninConeSize counts the gates with a path to gate id, excluding id.
func faninConeSize(c *ckt.Circuit, id int) int {
	seen := map[int]bool{}
	stack := append([]int(nil), c.Gates[id].Fanin...)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !seen[i] {
			seen[i] = true
			stack = append(stack, c.Gates[i].Fanin...)
		}
	}
	return len(seen)
}

// TestRecomputeUIncrementalPOWithFanout covers the unusual-netlist
// case where a PO gate drives further logic: a PO's rows are the fixed
// sample ladder regardless of delays, so a delay change downstream of
// the PO must neither corrupt predecessor reads of the PO's rows nor
// propagate a phantom delta through it.
func TestRecomputeUIncrementalPOWithFanout(t *testing.T) {
	c := ckt.New("po-fanout")
	a := c.MustAddGate("a", ckt.Input)
	b := c.MustAddGate("b", ckt.Input)
	x := c.MustAddGate("x", ckt.Nand)
	c.MustConnect(a, x)
	c.MustConnect(b, x)
	po1 := c.MustAddGate("po1", ckt.Nand)
	c.MustConnect(x, po1)
	c.MustConnect(a, po1)
	c.MarkPO(po1)
	sink := c.MustAddGate("sink", ckt.Nand)
	c.MustConnect(po1, sink)
	c.MustConnect(b, sink)
	c.MarkPO(sink)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}

	lib := charlib.NewLibrary(devmodel.Tech70nm(), charlib.CoarseGrid())
	cells := NominalAssignment(c, lib, 2)
	an, err := Analyze(c, lib, cells, Config{Vectors: 1000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	// Change the delay of the gate downstream of the fanout PO: the
	// affected-set propagation reaches po1, whose row must keep
	// serving the baseline ladder to x.
	d := append([]float64(nil), an.Delays...)
	d[sink] *= 2
	inc, err := an.RecomputeU(lib, d)
	if err != nil {
		t.Fatal(err)
	}
	full, err := an.RecomputeUFull(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inc-full) > 1e-12*math.Max(full, 1) {
		t.Errorf("PO-with-fanout: incremental U = %.17g, full U = %.17g", inc, full)
	}

	// And changing the PO's own delay must flow to its predecessors.
	d2 := append([]float64(nil), an.Delays...)
	d2[po1] *= 3
	inc2, err := an.RecomputeU(lib, d2)
	if err != nil {
		t.Fatal(err)
	}
	full2, err := an.RecomputeUFull(d2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inc2-full2) > 1e-12*math.Max(full2, 1) {
		t.Errorf("PO delay change: incremental U = %.17g, full U = %.17g", inc2, full2)
	}
}

// TestRecomputeUConsecutiveIncremental exercises the production call
// pattern — many back-to-back incremental RecomputeU calls with
// different single-gate perturbations and no interleaved full pass —
// which relies on the attenuation table's dirty-row restore. Expected
// values come from an independent Analysis whose incremental path is
// disabled, so the delta machinery under test never produces its own
// reference.
func TestRecomputeUConsecutiveIncremental(t *testing.T) {
	c, err := gen.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	lib := charlib.NewLibrary(devmodel.Tech70nm(), charlib.CoarseGrid())
	cells := NominalAssignment(c, lib, 2)
	an, err := Analyze(c, lib, cells, Config{Vectors: 1500, Seed: 21, FullRecomputeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Analyze(c, lib, cells, Config{Vectors: 1500, Seed: 21, FullRecomputeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}

	rng := stats.NewRNG(7)
	var gates []int
	for _, g := range c.Gates {
		if g.Type != ckt.Input {
			gates = append(gates, g.ID)
		}
	}
	for probe := 0; probe < 15; probe++ {
		id := gates[rng.Intn(len(gates))]
		d := append([]float64(nil), an.Delays...)
		d[id] *= 1 + 0.3*rng.Float64()
		inc, err := an.RecomputeU(lib, d)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.RecomputeUFull(d)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(inc-want) > 1e-12*math.Max(math.Abs(want), 1) {
			t.Fatalf("probe %d (gate %s): incremental U = %.17g after consecutive calls, full U = %.17g",
				probe, c.Gates[id].Name, inc, want)
		}
	}
}
