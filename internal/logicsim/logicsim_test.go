package logicsim

import (
	"math"
	"testing"

	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/stats"
)

// buildC17 constructs the genuine ISCAS-85 c17 netlist.
func buildC17(t testing.TB) *ckt.Circuit {
	t.Helper()
	c := ckt.New("c17")
	for _, n := range []string{"1", "2", "3", "6", "7"} {
		c.MustAddGate(n, ckt.Input)
	}
	add := func(name string, ins ...string) int {
		id := c.MustAddGate(name, ckt.Nand)
		for _, in := range ins {
			src, _ := c.GateByName(in)
			c.MustConnect(src, id)
		}
		return id
	}
	add("10", "1", "3")
	add("11", "3", "6")
	add("16", "2", "11")
	add("19", "11", "7")
	g22 := add("22", "10", "16")
	g23 := add("23", "16", "19")
	c.MarkPO(g22)
	c.MarkPO(g23)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEvaluateC17(t *testing.T) {
	c := buildC17(t)
	// Inputs in order 1,2,3,6,7.
	cases := []struct {
		in       []bool
		o22, o23 bool
	}{
		// All zero: 10=1, 11=1, 16=1, 19=1, 22=NAND(1,1)=0, 23=0.
		{[]bool{false, false, false, false, false}, false, false},
		// All one: 10=0, 11=0, 16=1, 19=1, 22=1, 23=0.
		{[]bool{true, true, true, true, true}, true, false},
		// 1=1,3=1 -> 10=0 -> 22=1 regardless of 16.
		{[]bool{true, false, true, false, false}, true, false},
	}
	for _, tc := range cases {
		val, err := Evaluate(c, tc.in)
		if err != nil {
			t.Fatal(err)
		}
		id22, _ := c.GateByName("22")
		id23, _ := c.GateByName("23")
		if val[id22] != tc.o22 || val[id23] != tc.o23 {
			t.Errorf("Evaluate(%v): 22=%v 23=%v, want %v %v", tc.in, val[id22], val[id23], tc.o22, tc.o23)
		}
	}
}

func TestEvaluateBadInputLen(t *testing.T) {
	c := buildC17(t)
	if _, err := Evaluate(c, []bool{true}); err == nil {
		t.Fatal("wrong input length accepted")
	}
}

func TestAnalyzeStaticProbs(t *testing.T) {
	c := buildC17(t)
	res, err := Analyze(c, 20000, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, pi := range c.Inputs() {
		if math.Abs(res.P1[pi]-0.5) > 0.02 {
			t.Errorf("PI %d static prob = %g, want ~0.5", pi, res.P1[pi])
		}
	}
	// NAND of two independent 0.5 inputs: P(1) = 0.75.
	id10, _ := c.GateByName("10")
	if math.Abs(res.P1[id10]-0.75) > 0.02 {
		t.Errorf("gate 10 static prob = %g, want ~0.75", res.P1[id10])
	}
	// Activity = 2p(1-p).
	if math.Abs(res.Activity[id10]-2*res.P1[id10]*(1-res.P1[id10])) > 1e-12 {
		t.Error("activity formula broken")
	}
}

func TestAnalyzePjjIsOne(t *testing.T) {
	c := buildC17(t)
	res, err := Analyze(c, 1000, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	for k, po := range c.Outputs() {
		if res.Pij[po][k] != 1 {
			t.Errorf("P_jj for PO %d = %g, want 1", po, res.Pij[po][k])
		}
	}
}

// Brute-force check of the path-sensitization definition: for every
// one of the 32 c17 input vectors, gate i is "sensitized to PO j" when
// the boolean DP sens(g) = OR_f (sens(f) AND side-inputs-of-g
// non-controlling) reaches j. P_ij is the fraction of such vectors.
func TestAnalyzePijMatchesBruteForce(t *testing.T) {
	c := buildC17(t)
	res, err := Analyze(c, 50000, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	nPI := len(c.Inputs())
	id10, _ := c.GateByName("10")
	id11, _ := c.GateByName("11")
	id22, _ := c.GateByName("22")
	id23, _ := c.GateByName("23")
	brute := func(gate, po int) float64 {
		count := 0
		total := 1 << uint(nPI)
		for m := 0; m < total; m++ {
			in := make([]bool, nPI)
			for b := range in {
				in[b] = m>>uint(b)&1 == 1
			}
			if pathSensitized(t, c, in, gate, po) {
				count++
			}
		}
		return float64(count) / float64(total)
	}
	for _, tc := range []struct {
		gate, po int
		name     string
	}{
		{id10, id22, "P(10->22)"},
		{id11, id22, "P(11->22)"},
		{id11, id23, "P(11->23)"},
		{id10, id23, "P(10->23)"},
	} {
		want := brute(tc.gate, tc.po)
		col, ok := res.POColumn(tc.po)
		if !ok {
			t.Fatal("PO column missing")
		}
		got := res.Pij[tc.gate][col]
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%s = %g, brute force %g", tc.name, got, want)
		}
	}
	// Gate 10 has no structural path to PO 23.
	col23, _ := res.POColumn(id23)
	if res.Pij[id10][col23] != 0 {
		t.Errorf("P(10->23) = %g, want 0 (no path)", res.Pij[id10][col23])
	}
}

// pathSensitized runs the per-vector boolean DP from gate `from` and
// reports whether sensitization reaches gate `to`.
func pathSensitized(t *testing.T, c *ckt.Circuit, inputs []bool, from, to int) bool {
	t.Helper()
	val, err := Evaluate(c, inputs)
	if err != nil {
		t.Fatal(err)
	}
	sens := make([]bool, len(c.Gates))
	sens[from] = true
	for _, id := range c.MustTopoOrder() {
		g := c.Gates[id]
		if g.Type == ckt.Input || id == from {
			continue
		}
		cv, hasCV := g.Type.ControllingValue()
		for fi, f := range g.Fanin {
			if !sens[f] {
				continue
			}
			ok := true
			if hasCV {
				for oi, of := range g.Fanin {
					if oi != fi && val[of] == cv {
						ok = false
						break
					}
				}
			}
			if ok {
				sens[id] = true
				break
			}
		}
	}
	return sens[to]
}

func TestSideSensitization(t *testing.T) {
	c := buildC17(t)
	res, err := Analyze(c, 20000, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	// Gate 16 = NAND(2, 11); sensitization of the path from 11 through
	// 16 requires input 2 to be non-controlling (=1): S = P1(2) ~ 0.5.
	id11, _ := c.GateByName("11")
	id16, _ := c.GateByName("16")
	s := SideSensitization(c, res, id11, id16)
	if math.Abs(s-0.5) > 0.02 {
		t.Errorf("S(11->16) = %g, want ~0.5", s)
	}
	// XOR gates are always sensitized.
	cx := ckt.New("x")
	a := cx.MustAddGate("a", ckt.Input)
	b := cx.MustAddGate("b", ckt.Input)
	x := cx.MustAddGate("x", ckt.Xor)
	cx.MustConnect(a, x)
	cx.MustConnect(b, x)
	cx.MarkPO(x)
	resx, err := Analyze(cx, 1000, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := SideSensitization(cx, resx, a, x); got != 1 {
		t.Errorf("XOR side sensitization = %g, want 1", got)
	}
}

func TestAnalyzeDefaultVectors(t *testing.T) {
	c := buildC17(t)
	res, err := Analyze(c, 0, stats.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.N != DefaultVectors {
		t.Fatalf("default vectors = %d, want %d", res.N, DefaultVectors)
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	c := buildC17(t)
	r1, _ := Analyze(c, 5000, stats.NewRNG(77))
	r2, _ := Analyze(c, 5000, stats.NewRNG(77))
	for id := range r1.P1 {
		if r1.P1[id] != r2.P1[id] {
			t.Fatal("Analyze must be deterministic for a fixed seed")
		}
	}
}

func BenchmarkAnalyzeC17(b *testing.B) {
	c := buildC17(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(c, 10000, stats.NewRNG(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSensitizationMemo checks the handle memo: a repeated
// Sensitization at one (vectors, seed) is served from the first run,
// a different seed gets its own entry, and the memoized statistics
// equal a direct AnalyzeCompiled at that seed.
func TestSensitizationMemo(t *testing.T) {
	c, err := gen.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	cc := engine.MustCompile(c)
	r, err := Sensitization(cc, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Sensitization(cc, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if again != r {
		t.Fatal("repeated Sensitization was not served from the memo")
	}
	other, err := Sensitization(cc, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if other == r {
		t.Fatal("different seeds share one memo entry")
	}
	want, err := AnalyzeCompiled(cc, 1000, stats.NewRNG(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, want, r, "memo")
}
