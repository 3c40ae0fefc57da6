package strike

import (
	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/logicsim"
	"repro/internal/lut"
	"repro/internal/par"
)

// Attenuate applies the paper's Equation 1: a glitch of width wi
// passing a gate of delay d emerges with width 0 (wi < d),
// 2(wi−d) (d ≤ wi ≤ 2d), or wi (wi > 2d).
func Attenuate(wi, d float64) float64 {
	switch {
	case wi < d:
		return 0
	case wi <= 2*d:
		return 2 * (wi - d)
	default:
		return wi
	}
}

// Propagator is the ElectricalFilter stage: the §3.2
// reverse-topological computation of expected PO glitch widths W_ij
// under Eq. 1 attenuation and the Eq. 2 π-split, over a fixed sample
// glitch-width ladder. A Propagator is built once per analysis from
// the netlist-derived statics (compiled orders, side sensitizations,
// Eq. 2 denominators, prepared interpolations) and then Run for any
// per-gate delay vector.
//
// Run is deterministic and parallel over PO columns. The attenuation
// table is per-delay-vector state shared with the Delta incremental
// path, so one Propagator must not Run concurrently with itself or a
// Delta.
type Propagator struct {
	cc   *engine.CompiledCircuit
	c    *ckt.Circuit
	sens *logicsim.Result
	// samples is the §3.2 sample-width ladder ws_k; genWidth the
	// per-gate generated widths w_i (step iv interpolation points).
	samples  []float64
	genWidth []float64

	// Netlist-derived statics (delay-independent): reverse topological
	// order, per-fanout-edge side sensitizations S_is, the Eq. 2
	// denominators Σ_s S_is·P_sj, and the prepared interpolation of
	// each gate's generated width on the sample ladder.
	rorder  []int
	foutOff []int
	sis     []float64
	den     []float64
	genIdx  []int32
	genFrac []float64
	// attIdx/attFrac are the per-(gate, sample) prepared interpolations
	// of the Eq. 1-attenuated widths for the current delay vector.
	attIdx  []int32
	attFrac []float64

	nPOs int
}

// elecStatics are the sens-derived electrical statics: per-fanout-edge
// side sensitizations S_is and the Eq. 2 denominators Σ_s S_is·P_sj.
// Both depend only on the netlist and the sensitization statistics —
// never on the cell assignment — so they are memoized on the compiled
// handle and shared by every warm analysis at the same (vectors, seed).
type elecStatics struct {
	sis []float64
	den []float64
}

// MemoWeight reports the statics' retained size in cache-weight units
// (engine.MemoWeigher): the denominator arena dominates.
func (s *elecStatics) MemoWeight() int64 {
	return int64(len(s.sis)+len(s.den)) * 8 / 128
}

// elecKey memoizes elecStatics on the compiled handle, keyed by the
// identity of the sensitization result they were derived from (one
// entry per live (vectors, seed) result).
type elecKey struct{ sens *logicsim.Result }

// staticsFor returns the memoized sens-derived statics for the handle.
func staticsFor(cc *engine.CompiledCircuit, sens *logicsim.Result) *elecStatics {
	v, _ := cc.Memo(elecKey{sens}, func() (any, error) {
		c := cc.Circuit()
		nGates := len(c.Gates)
		nPOs := len(c.Outputs())
		foutOff := cc.FanoutOffsets()
		st := &elecStatics{
			sis: make([]float64, foutOff[nGates]),
			den: make([]float64, nGates*nPOs),
		}
		par.ForChunks(nGates, 0, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				g := c.Gates[i]
				if g.Type.IsSource() {
					continue
				}
				sis := st.sis[foutOff[i]:foutOff[i+1]]
				for si, s := range g.Fanout {
					sis[si] = logicsim.SideSensitization(c, sens, i, s)
				}
				// π_isj = S_is · P_ij / Σ_k S_ik · P_kj  (Eq. 2), which
				// satisfies the paper's normalization
				// Σ_s π_isj · P_sj = P_ij. The denominator is
				// delay-independent, so it is computed once here.
				den := st.den[i*nPOs : (i+1)*nPOs]
				for j := 0; j < nPOs; j++ {
					d := 0.0
					for si, s := range g.Fanout {
						d += sis[si] * sens.Pij[s][j]
					}
					den[j] = d
				}
			}
		})
		return st, nil
	})
	return v.(*elecStatics)
}

// NewPropagator builds the electrical-filter statics for a compiled
// circuit, its sensitization statistics, the per-gate generated glitch
// widths and the sample ladder. The sens-derived statics (side
// sensitizations, Eq. 2 denominators) are memoized on the handle, so a
// warm analysis only pays for the assignment-derived interpolation
// coefficients.
func NewPropagator(cc *engine.CompiledCircuit, sens *logicsim.Result, genWidth, samples []float64) *Propagator {
	c := cc.Circuit()
	p := &Propagator{
		cc:       cc,
		c:        c,
		sens:     sens,
		samples:  samples,
		genWidth: genWidth,
		nPOs:     len(c.Outputs()),
	}
	nGates := len(c.Gates)
	p.foutOff = cc.FanoutOffsets()
	st := staticsFor(cc, sens)
	p.sis = st.sis
	p.den = st.den
	p.genIdx = make([]int32, nGates)
	p.genFrac = make([]float64, nGates)
	for _, g := range c.Gates {
		if g.Type.IsSource() {
			continue
		}
		gi, gf := lut.PrepInterp1D(samples, genWidth[g.ID])
		p.genIdx[g.ID] = int32(gi)
		p.genFrac[g.ID] = gf
	}
	p.rorder = cc.ReverseTopoOrder()
	return p
}

// Samples returns the sample-width ladder (read-only).
func (p *Propagator) Samples() []float64 { return p.samples }

// prepAtten prepares, for every gate s and sample index k, the
// interpolation of the Eq. 1-attenuated width Attenuate(ws[k],
// delays[s]) on the sample ladder. attIdx -2 marks a fully masked
// glitch (wo <= 0), which contributes nothing.
func (p *Propagator) prepAtten(delays []float64) {
	K := len(p.samples)
	nGates := len(p.c.Gates)
	if p.attIdx == nil {
		p.attIdx = make([]int32, nGates*K)
		p.attFrac = make([]float64, nGates*K)
	}
	for _, g := range p.c.Gates {
		if g.Type.IsSource() {
			continue
		}
		p.prepAttenGate(g.ID, delays[g.ID])
	}
}

// prepAttenGate fills one gate's attenuation row for delay d.
func (p *Propagator) prepAttenGate(id int, d float64) {
	ws := p.samples
	K := len(ws)
	row := id * K
	for k := 0; k < K; k++ {
		wo := Attenuate(ws[k], d)
		if wo <= 0 {
			p.attIdx[row+k] = -2
			continue
		}
		i, f := lut.PrepInterp1D(ws, wo)
		p.attIdx[row+k] = int32(i)
		p.attFrac[row+k] = f
	}
}

// computeGateColumns evaluates gate i's §3.2 step (iii)/(iv) rows for
// PO columns [jLo, jHi): WS rows into wsDst and expected widths into
// wijDst. Successor rows are read from wsDst, except that when
// affected is non-nil the rows of unaffected successors come from
// wsBase (the incremental delta evaluation). accK is caller scratch of
// K floats. The accumulation order (ascending successor index per
// sample) matches the historical serial pass, so results are
// bit-identical to it.
func (p *Propagator) computeGateColumns(i, jLo, jHi int, accK []float64, wsDst, wijDst, wsBase []float64, affected []bool) {
	c := p.c
	g := c.Gates[i]
	ws := p.samples
	K := len(ws)
	nPOs := p.nPOs
	ownCol := -1
	if g.PO {
		// Step (ii): a PO gate presents the glitch directly at its own
		// column. ISCAS-85 POs are terminal, so the paper stops here;
		// a sequential frame's flop-capture columns sit on D-pin
		// drivers that usually DO drive further logic, so a
		// fanout-bearing PO falls through and combines successors for
		// the remaining columns like any internal gate.
		j, _ := p.cc.POColumn(i)
		ownCol = j
		if j >= jLo && j < jHi {
			row := wsDst[(i*nPOs+j)*K : (i*nPOs+j+1)*K]
			copy(row, ws)
			wijDst[i*nPOs+j] = p.genWidth[i]
		}
		if len(g.Fanout) == 0 {
			return
		}
	}
	// Step (iii): combine successors.
	succs := g.Fanout
	sis := p.sis[p.foutOff[i]:p.foutOff[i+1]]
	den := p.den[i*nPOs : (i+1)*nPOs]
	for j := jLo; j < jHi; j++ {
		if j == ownCol {
			continue
		}
		pij := p.sens.Pij[i][j]
		if pij == 0 {
			// Row (i, j) is never read downstream: a predecessor's
			// combine loop skips zero-P_sj successors, so the row needs
			// no zero-fill — this is what lets Run work in a reused
			// (un-zeroed) arena.
			continue
		}
		if den[j] == 0 {
			// Reachable but with a zero Eq. 2 denominator (every side
			// sensitization vanished): the glitch contributes nothing,
			// but predecessors WILL read this row, so it must hold
			// zeros even in a reused arena.
			row := wsDst[(i*nPOs+j)*K : (i*nPOs+j+1)*K]
			for k := range row {
				row[k] = 0
			}
			continue
		}
		for k := 0; k < K; k++ {
			accK[k] = 0
		}
		for si, s := range succs {
			if p.sens.Pij[s][j] == 0 {
				// Zero sensitization to this PO: the successor's row is
				// identically zero (and may be un-zeroed scratch), and
				// its contribution to the combine is zero either way.
				continue
			}
			w := sis[si]
			src := wsDst
			if affected != nil && !affected[s] {
				src = wsBase
			}
			sj := src[(s*nPOs+j)*K : (s*nPOs+j+1)*K]
			att := s * K
			for k := 0; k < K; k++ {
				idx := p.attIdx[att+k]
				if idx == -2 {
					continue
				}
				// WE_sjk: interpolate successor s's table at the
				// attenuated width (§3.2 step iii), via the
				// prepared coefficients.
				var v float64
				if f := p.attFrac[att+k]; f < 0 {
					v = sj[idx]
				} else {
					v = sj[idx] + f*(sj[idx+1]-sj[idx])
				}
				accK[k] += w * v
			}
		}
		row := wsDst[(i*nPOs+j)*K : (i*nPOs+j+1)*K]
		for k := 0; k < K; k++ {
			row[k] = pij * accK[k] / den[j]
		}
		// Step (iv): expected width for the actual generated
		// glitch width w_i.
		wijDst[i*nPOs+j] = lut.ApplyInterp1D(row, int(p.genIdx[i]), p.genFrac[i])
	}
}

// Run executes the full reverse-topological pass for the given delay
// vector into the provided arenas (len nGates*nPOs*K and nGates*nPOs).
// PO columns are independent of one another, so the pass fans out over
// column chunks; each chunk owns all rows of its columns, making the
// parallel result identical to the serial one.
//
// wsDst may hold stale data from a previous Run: every row the pass
// reads is written (or zero-filled) first, because the combine loop
// skips zero-P_sj successors. Rows of unreachable (i, j) pairs are left
// untouched — callers exposing the WS table must supply a zeroed arena;
// callers that only consume wijDst (which IS fully zero-filled here)
// may reuse scratch.
func (p *Propagator) Run(delays, wsDst, wijDst []float64) {
	p.prepAtten(delays)
	K := len(p.samples)
	nPOs := p.nPOs
	for i := range wijDst {
		wijDst[i] = 0
	}
	nw := par.Workers(0)
	accs := make([][]float64, nw)
	for w := range accs {
		accs[w] = make([]float64, K)
	}
	par.Each(nPOs, nw, 0, func(worker, jLo, jHi int) {
		accK := accs[worker]
		for _, i := range p.rorder {
			if p.c.Gates[i].Type.IsSource() {
				continue
			}
			p.computeGateColumns(i, jLo, jHi, accK, wsDst, wijDst, nil, nil)
		}
	})
}

// GateReducer maps one gate's W_ij row to its U contribution — the
// LatchingWindow+Reduce step the Delta incremental path re-applies per
// changed gate (aserta supplies the Eq. 3 flux-weighted clamp).
type GateReducer func(i int, wij []float64) float64

// Delta is the incremental re-reduce configuration of the pipeline:
// re-evaluating the electrical pass under an alternative delay vector
// (Recompute, the gradient probe) or a whole alternative source set
// (Reanalyze, the optimizer's candidate cost). Both share one walk that
// re-propagates only the fanin cones of gates whose delays differ from
// the analysis baseline, and in those cones only the PO columns a
// changed gate is sensitized to, with every other row served from the
// pristine baseline arena. The walk always starts from the baseline,
// so error cannot accumulate across calls. Not safe for concurrent use
// (shared scratch arenas, including the Propagator's attenuation
// table).
type Delta struct {
	p *Propagator
	// Baseline state (owned by the caller, read-only here).
	baseDelays      []float64
	baseWS, baseWij []float64
	baseUi          []float64
	baseU           float64
	reduce          GateReducer

	// Per-call scratch: incremental WS/Wij arenas, the affected/changed
	// sets, the support columns (cols, as [lo, hi) runs in runs) and
	// the attenuation dirty-row bookkeeping.
	incrWS, incrWij []float64
	affected        []bool
	changed         []bool
	changedIDs      []int
	cols            []bool
	runs            []int
	accK            []float64
	// attIsBase/attDirty track which attenuation rows correspond to
	// the baseline delays, so delta calls refresh only changed rows.
	attIsBase bool
	attDirty  []int
	evals     int
}

// NewDelta creates the incremental evaluator for a baseline that was
// just produced by Run(baseDelays, baseWS, baseWij): the Propagator's
// attenuation table is assumed to reflect baseDelays.
func (p *Propagator) NewDelta(baseDelays, baseWS, baseWij, baseUi []float64, baseU float64, reduce GateReducer) *Delta {
	return &Delta{
		p:          p,
		baseDelays: baseDelays,
		baseWS:     baseWS,
		baseWij:    baseWij,
		baseUi:     baseUi,
		baseU:      baseU,
		reduce:     reduce,
		attIsBase:  true,
	}
}

// ensureScratch allocates the incremental arenas on first use.
func (d *Delta) ensureScratch() {
	if d.incrWS == nil {
		nGates := len(d.p.c.Gates)
		nPOs := d.p.nPOs
		K := len(d.p.samples)
		d.incrWS = make([]float64, nGates*nPOs*K)
		d.incrWij = make([]float64, nGates*nPOs)
		d.changed = make([]bool, nGates)
		d.affected = make([]bool, nGates)
		d.cols = make([]bool, nPOs)
		d.accK = make([]float64, K)
	}
}

// markChanged records which gates' delays differ from the baseline and
// returns how many do.
func (d *Delta) markChanged(delays []float64) int {
	changedIDs := d.changedIDs[:0]
	for _, g := range d.p.c.Gates {
		ch := !g.Type.IsSource() && delays[g.ID] != d.baseDelays[g.ID]
		d.changed[g.ID] = ch
		if ch {
			changedIDs = append(changedIDs, g.ID)
		}
	}
	d.changedIDs = changedIDs
	return len(changedIDs)
}

// markAffected computes affected(i) = some successor's delay changed,
// or some successor is itself affected, in one reverse-topological
// pass, and returns how many gates are affected. Terminal PO gates are
// never affected (no successors): their only row is the fixed sample
// ladder regardless of delays, so they serve baseline reads. A
// fanout-bearing PO (a sequential frame's D-pin tap) has
// delay-dependent non-own columns and propagates normally.
func (d *Delta) markAffected() int {
	n := 0
	for _, i := range d.p.rorder {
		aff := false
		for _, s := range d.p.c.Gates[i].Fanout {
			if d.changed[s] || d.affected[s] {
				aff = true
				break
			}
		}
		d.affected[i] = aff
		if aff {
			n++
		}
	}
	return n
}

// propagate re-evaluates, into the incremental arenas, the rows the
// changed delays reach: the affected gates' rows in the PO columns
// some changed gate x is sensitized to. A predecessor reads row (x, j)
// only when P_xj ≠ 0, so no other column can move, and an affected
// gate's other columns keep the baseline's W_ij. Rows are computed by
// the same kernel, in the same order, as a full Run, so they are
// bit-identical to it.
func (d *Delta) propagate(delays []float64) {
	p := d.p
	nPOs := p.nPOs
	// Refresh only the attenuation rows that differ from the baseline
	// table: restore rows dirtied by the previous delta call, then
	// prepare the rows of this call's changed gates. After a full pass
	// at foreign delays the whole table is rebuilt once.
	if !d.attIsBase {
		p.prepAtten(d.baseDelays)
		d.attIsBase = true
		d.attDirty = d.attDirty[:0]
	}
	for _, id := range d.attDirty {
		p.prepAttenGate(id, d.baseDelays[id])
	}
	d.attDirty = d.attDirty[:0]
	for _, id := range d.changedIDs {
		p.prepAttenGate(id, delays[id])
		d.attDirty = append(d.attDirty, id)
	}
	for j := range d.cols {
		d.cols[j] = false
	}
	for _, x := range d.changedIDs {
		for j, pxj := range p.sens.Pij[x] {
			if pxj != 0 {
				d.cols[j] = true
			}
		}
	}
	runs := d.runs[:0]
	for j := 0; j < nPOs; j++ {
		if d.cols[j] {
			lo := j
			for j < nPOs && d.cols[j] {
				j++
			}
			runs = append(runs, lo, j)
		}
	}
	d.runs = runs
	for _, i := range p.rorder {
		// Source pseudo-gates carry no rows at all. (Terminal POs never
		// appear here — they have no successors, so they are never
		// affected; fanout-bearing POs recompute their non-own columns
		// like any internal gate.)
		if !d.affected[i] || p.c.Gates[i].Type.IsSource() {
			continue
		}
		copy(d.incrWij[i*nPOs:(i+1)*nPOs], d.baseWij[i*nPOs:(i+1)*nPOs])
		for r := 0; r < len(runs); r += 2 {
			p.computeGateColumns(i, runs[r], runs[r+1], d.accK, d.incrWS, d.incrWij, d.baseWS, d.affected)
		}
	}
}

// Recompute re-evaluates the electrical pass with an alternative
// per-gate delay vector, keeping generated widths and sensitization
// statistics fixed, and returns the resulting circuit unreliability.
// Only the rows the changed delays reach are re-propagated. The
// result is the baseline U plus the changed gates' deltas, except on
// every fullEvery-th call (negative disables the cadence) and when
// more than half the gates are affected: then it is the exact
// netlist-order sum RecomputeFull returns, bit for bit, formed from
// the re-propagated contributions and the baseline's.
func (d *Delta) Recompute(delays []float64, fullEvery int) (float64, error) {
	p := d.p
	c := p.c
	if d.baseWS == nil {
		// Lean baseline (the analysis did not retain its WS arena):
		// there is nothing to serve unaffected rows from, so every
		// re-evaluation is a full pass. Unchanged-delay calls still
		// short-circuit to the baseline U.
		same := true
		for _, g := range c.Gates {
			if !g.Type.IsSource() && delays[g.ID] != d.baseDelays[g.ID] {
				same = false
				break
			}
		}
		if same {
			return d.baseU, nil
		}
		return d.RecomputeFull(delays)
	}
	d.ensureScratch()
	if d.markChanged(delays) == 0 {
		return d.baseU, nil
	}
	d.evals++
	full := fullEvery > 0 && d.evals%fullEvery == 0
	if 2*d.markAffected() > len(c.Gates) {
		full = true
	}
	d.propagate(delays)
	nPOs := p.nPOs
	if full {
		u := 0.0
		for _, g := range c.Gates {
			switch {
			case g.Type.IsSource():
			case d.affected[g.ID]:
				u += d.reduce(g.ID, d.incrWij[g.ID*nPOs:(g.ID+1)*nPOs])
			default:
				u += d.baseUi[g.ID]
			}
		}
		return u, nil
	}
	u := d.baseU
	for _, i := range p.rorder {
		if d.affected[i] && !c.Gates[i].Type.IsSource() {
			u += d.reduce(i, d.incrWij[i*nPOs:(i+1)*nPOs]) - d.baseUi[i]
		}
	}
	return u, nil
}

// Reanalyze scores a whole alternative source set against the
// baseline: delays and generated widths may both differ from it, and
// reduce is the candidate's reducer; rereduce marks further gates
// whose reducer output differs for an unchanged row (a new flux
// weight). It returns every gate's contribution and their
// netlist-order sum, bit-identical to a full Run at
// (delays, genWidth) reduced by reduce: the walk re-propagates the rows
// the changed delays reach, step (iv) is redone for gates whose
// generated width changed, and every other gate keeps the baseline's
// contribution. When more than half the gates are affected (or the
// baseline is Lean) a full pass runs instead. The Recompute cadence
// counter is left alone.
func (d *Delta) Reanalyze(delays, genWidth []float64, reduce GateReducer, rereduce []bool) (ui []float64, u float64) {
	p := d.p
	c := p.c
	nPOs := p.nPOs
	d.ensureScratch()
	d.markChanged(delays)
	full := d.baseWS == nil || 2*d.markAffected() > len(c.Gates)
	if full {
		p.Run(delays, d.incrWS, d.incrWij)
		d.attIsBase = false // the attenuation table now reflects foreign delays
	} else {
		d.propagate(delays)
	}
	ui = make([]float64, len(c.Gates))
	for _, g := range c.Gates {
		i := g.ID
		if g.Type.IsSource() {
			continue
		}
		fresh := full || d.affected[i]
		if w := genWidth[i]; w != p.genWidth[i] {
			if !fresh {
				copy(d.incrWij[i*nPOs:(i+1)*nPOs], d.baseWij[i*nPOs:(i+1)*nPOs])
			}
			d.reinterp(i, w, full)
			fresh = true
		}
		switch {
		case fresh:
			ui[i] = reduce(i, d.incrWij[i*nPOs:(i+1)*nPOs])
		case rereduce[i]:
			ui[i] = reduce(i, d.baseWij[i*nPOs:(i+1)*nPOs])
		default:
			ui[i] = d.baseUi[i]
		}
		u += ui[i]
	}
	return ui, u
}

// reinterp redoes gate i's step (iv) in the incremental W_ij arena for
// generated width w, exactly as computeGateColumns writes it, reading
// each WS row from the incremental arena where this call computed it
// (every row when full) and from the baseline elsewhere.
func (d *Delta) reinterp(i int, w float64, full bool) {
	p := d.p
	g := p.c.Gates[i]
	nPOs := p.nPOs
	K := len(p.samples)
	wij := d.incrWij[i*nPOs : (i+1)*nPOs]
	ownCol := -1
	if g.PO {
		ownCol, _ = p.cc.POColumn(i)
		wij[ownCol] = w
		if len(g.Fanout) == 0 {
			return
		}
	}
	gi, gf := lut.PrepInterp1D(p.samples, w)
	den := p.den[i*nPOs : (i+1)*nPOs]
	for j := range wij {
		if j == ownCol || p.sens.Pij[i][j] == 0 || den[j] == 0 {
			continue
		}
		ws := d.baseWS
		if full || (d.affected[i] && d.cols[j]) {
			ws = d.incrWS
		}
		wij[j] = lut.ApplyInterp1D(ws[(i*nPOs+j)*K:(i*nPOs+j+1)*K], gi, gf)
	}
}

// RecomputeFull is Recompute without the incremental shortcut: the
// complete electrical pass runs against the given delays (into scratch
// arenas — the baseline is untouched). It is the exactness reference
// for the incremental path and its periodic fallback.
func (d *Delta) RecomputeFull(delays []float64) (float64, error) {
	p := d.p
	c := p.c
	nPOs := p.nPOs
	d.ensureScratch()
	p.Run(delays, d.incrWS, d.incrWij)
	d.attIsBase = false // the attenuation table now reflects foreign delays
	u := 0.0
	for _, g := range c.Gates {
		if g.Type.IsSource() {
			continue
		}
		u += d.reduce(g.ID, d.incrWij[g.ID*nPOs:(g.ID+1)*nPOs])
	}
	return u, nil
}
