package ser

import (
	"fmt"
	"testing"
)

// TestOptimizeTable1Pins pins SERTOPT's Table 1 rows at bench scale
// bit for bit: the candidate cost loop scores cells incrementally
// against the baseline analysis, and every value it produces must
// equal what full per-candidate analyses produced, so the same
// candidates are accepted, in the same number of evaluations.
func TestOptimizeTable1Pins(t *testing.T) {
	pins := []struct {
		circuit         string
		decrease, cost  string
		evals, accepted int
	}{
		{"c432", "0.036530531523266574", "1.6413230874630993", 85, 4},
		{"c880", "0.011480932221710427", "1.6343506161875669", 56, 5},
		{"c1355", "0.024291711404271443", "1.6306046927877158", 43, 5},
	}
	for _, pin := range pins {
		c, err := Benchmark(pin.circuit)
		if err != nil {
			t.Fatal(err)
		}
		h, err := Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys().OptimizeCompiled(h, OptimizeOptions{
			VDDs:       []float64{0.8, 1.0},
			Vths:       []float64{0.2, 0.3},
			Iterations: 4,
			MaxBasis:   8,
			Vectors:    4000,
			Seed:       3,
		})
		if err != nil {
			t.Fatal(err)
		}
		raw := res.Raw()
		got := fmt.Sprintf("%.17g %.17g %d %d", res.UDecrease, raw.Cost, raw.Evaluations, len(raw.History))
		want := fmt.Sprintf("%s %s %d %d", pin.decrease, pin.cost, pin.evals, pin.accepted)
		if got != want {
			t.Errorf("%s: UDecrease Cost Evaluations len(History) = %s, want %s", pin.circuit, got, want)
		}
	}
}
