package engine

// The paper-scale analysis defaults, shared by every flow. These used
// to be re-implemented ("0 means 10,000 vectors") independently in
// aserta, seq, sertopt and the public API; Params.Normalize is the one
// place they are filled now, so the defaults cannot drift apart.
const (
	// DefaultVectors is the paper's random-vector count for
	// sensitization statistics.
	DefaultVectors = 10000
	// DefaultSampleWidths is the §3.2 sample-glitch-width count.
	DefaultSampleWidths = 10
	// DefaultPOLoad is the latch input capacitance on each primary
	// output (F).
	DefaultPOLoad = 2e-15
	// DefaultClockPeriod is the Eq. 3 latching-window clock (s).
	DefaultClockPeriod = 300e-12
	// DefaultWideWidth is the largest sample width, standing in for the
	// Lemma-1 "very wide glitch" (s).
	DefaultWideWidth = 2.56e-9
)

// Params are the analysis knobs every flow shares. A zero value means
// "use the paper default"; Normalize fills those in place.
type Params struct {
	Vectors      int
	SampleWidths int
	POLoad       float64
	ClockPeriod  float64
	WideWidth    float64
}

// Normalize fills zero (or negative) fields with the paper defaults.
func (p *Params) Normalize() {
	if p.Vectors <= 0 {
		p.Vectors = DefaultVectors
	}
	if p.SampleWidths <= 0 {
		p.SampleWidths = DefaultSampleWidths
	}
	if p.POLoad <= 0 {
		p.POLoad = DefaultPOLoad
	}
	if p.ClockPeriod <= 0 {
		p.ClockPeriod = DefaultClockPeriod
	}
	if p.WideWidth <= 0 {
		p.WideWidth = DefaultWideWidth
	}
}
