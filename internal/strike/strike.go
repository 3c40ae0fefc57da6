// Package strike is the composable strike-propagation pipeline every
// analysis flow shares. The paper's three masking mechanisms used to be
// re-implemented with local variations inside aserta (combinational
// Eq. 1–4), seq (per-frame electrical filtering plus multi-cycle fault
// chase) and the optimizer's incremental re-evaluation; this package
// hosts each mechanism exactly once, as a pipeline stage over
// engine.CompiledCircuit:
//
//	EnumerateSources  per-gate strike parameters: output loads, delays,
//	                  generated glitch widths w_i, flux weights Z_i
//	                  (Eq. 3) — everything derived from the cell
//	                  assignment.
//	ElectricalFilter  the Propagator: Eq. 1 attenuation and the Eq. 2
//	                  π-split applied in one reverse-topological pass
//	                  over the §3.2 sample-width ladder, producing the
//	                  expected PO glitch widths W_ij. Deterministic and
//	                  parallel over PO columns; the Delta variant
//	                  re-propagates only the fanin cones of gates whose
//	                  delays changed, in the PO columns those gates
//	                  reach (the optimizer's gradient probes and
//	                  candidate scoring).
//	LatchingWindow    the Eq. 3 clamp min(W, T): a glitch wider than
//	                  the clock period is certainly latched. Clamp,
//	                  GateU and the Reduce/ReduceSequential reducers.
//	LogicalPropagate  the sequential multi-cycle fault chase: a fault
//	                  captured into a flop is simulated against a
//	                  fault-free trace until it reaches a primary
//	                  output or dies.
//	Reduce            deterministic accumulation into per-gate U
//	                  contributions — a first-class output, ranked into
//	                  the per-gate susceptibility product by Rank.
//
// Flows are thin configurations: combinational ASERTA runs
// EnumerateSources → ElectricalFilter → Reduce (no window-capture
// split); the sequential engine adds the flop-capture window and
// LogicalPropagate; the optimizer re-enters through Delta for
// incremental re-reduction over affected cones.
//
// Determinism: for a fixed seed every stage is bit-identical between
// its serial and parallel paths — the electrical pass partitions PO
// columns (each worker owns all rows of its columns), the fault chase
// writes disjoint per-flop slots, and the reducers accumulate in
// netlist order.
package strike

import (
	"fmt"

	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/engine"
)

// Sources is the EnumerateSources stage output: per-gate strike-source
// parameters indexed by gate ID (source pseudo-gates hold zeros).
type Sources struct {
	// Loads[i] is the capacitive load on gate i's output (F).
	Loads []float64
	// Delays[i] is gate i's propagation delay under its load (s).
	Delays []float64
	// GenWidth[i] is the strike-induced glitch width w_i at gate i (s).
	GenWidth []float64
	// Flux[i] is gate i's Eq. 3 flux weight Z_i (strike-collection
	// area).
	Flux []float64
}

// GateLoads computes each gate's output load: the input capacitance of
// every fanout pin plus the PO latch load where applicable.
func GateLoads(c *ckt.Circuit, lib *charlib.Library, cells []charlib.Cell, poLoad float64) ([]float64, error) {
	loads := make([]float64, len(c.Gates))
	for _, g := range c.Gates {
		for _, s := range g.Fanout {
			cap, err := lib.InputCap(cells[s])
			if err != nil {
				return nil, fmt.Errorf("strike: input cap of gate %s: %v", c.Gates[s].Name, err)
			}
			loads[g.ID] += cap
		}
		if g.PO {
			loads[g.ID] += poLoad
		}
	}
	return loads, nil
}

// EnumerateSources derives every gate's strike parameters from the
// cell assignment: loads, delays, generated glitch widths and flux
// weights. It is the first pipeline stage; everything downstream
// depends only on its output and the netlist.
func EnumerateSources(cc *engine.CompiledCircuit, lib *charlib.Library, cells []charlib.Cell, poLoad float64) (*Sources, error) {
	c := cc.Circuit()
	if len(cells) != len(c.Gates) {
		return nil, fmt.Errorf("strike: %d cells for %d gates", len(cells), len(c.Gates))
	}
	loads, err := GateLoads(c, lib, cells, poLoad)
	if err != nil {
		return nil, err
	}
	src := &Sources{
		Loads:    loads,
		Delays:   make([]float64, len(c.Gates)),
		GenWidth: make([]float64, len(c.Gates)),
		Flux:     make([]float64, len(c.Gates)),
	}
	for _, g := range c.Gates {
		if g.Type.IsSource() {
			continue
		}
		d, err := lib.Delay(cells[g.ID], loads[g.ID])
		if err != nil {
			return nil, fmt.Errorf("strike: delay of %s: %v", g.Name, err)
		}
		src.Delays[g.ID] = d
		w, err := lib.GlitchGen(cells[g.ID], loads[g.ID])
		if err != nil {
			return nil, fmt.Errorf("strike: glitch gen of %s: %v", g.Name, err)
		}
		src.GenWidth[g.ID] = w
		src.Flux[g.ID] = cells[g.ID].FluxWeight()
	}
	return src, nil
}
