package logicsim

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/stats"
)

// requireSameResult asserts two analyses are bit-identical in every
// statistic (floats compared exactly, not approximately).
func requireSameResult(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: N = %d, want %d", label, got.N, want.N)
	}
	if !reflect.DeepEqual(want.P1, got.P1) {
		t.Fatalf("%s: P1 differs", label)
	}
	if !reflect.DeepEqual(want.Activity, got.Activity) {
		t.Fatalf("%s: Activity differs", label)
	}
	if !reflect.DeepEqual(want.Pij, got.Pij) {
		t.Fatalf("%s: Pij differs", label)
	}
}

// TestAnalyzeBudgetBitIdentity proves the chunked analysis is
// bit-identical to the unbounded run at every budget, including
// budgets small enough to force one-word chunks and worker shedding,
// and with a vector count that exercises the final-chunk mask.
func TestAnalyzeBudgetBitIdentity(t *testing.T) {
	for _, name := range []string{"c432", "c880"} {
		c, err := gen.ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		cc := engine.MustCompile(c)
		// 1000 vectors → 16 words with a 40-bit final mask.
		want, err := AnalyzeCompiledBudget(cc, 1000, stats.NewRNG(11), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		nGates := len(c.Gates)
		nEdges := cc.FaninEdgeOffsets()[nGates]
		perWord := int64(nGates+nEdges+nGates) * 8
		for _, budget := range []int64{1, perWord * 3, perWord * 100} {
			for _, workers := range []int{1, 3} {
				got, err := AnalyzeCompiledBudget(cc, 1000, stats.NewRNG(11), workers, budget)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, want, got, name)
			}
		}
		// The default entry point must agree too (its 2 GiB budget
		// keeps this workload in a single chunk).
		got, err := AnalyzeCompiled(cc, 1000, stats.NewRNG(11), 0)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, want, got, name+" default budget")
	}
}

// TestAnalyzeBudgetConeFallback combines both degradation modes: the
// cone arena over budget (walk-on-the-fly) and a transient budget
// small enough to chunk the vectors. Results must still be
// bit-identical to the fully resident run.
func TestAnalyzeBudgetConeFallback(t *testing.T) {
	c, err := gen.ISCAS85("c1355")
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeCompiledBudget(engine.MustCompile(c), 2000, stats.NewRNG(5), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	saved := maxConeEntries
	maxConeEntries = 0
	defer func() { maxConeEntries = saved }()
	// Fresh handle: the cone arena (here nil) is memoized per handle.
	got, err := AnalyzeCompiledBudget(engine.MustCompile(c), 2000, stats.NewRNG(5), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, want, got, "c1355 fallback+chunked")
}

// TestAnalyzeBudgetAllocBound checks the memory budget itself, not just
// bit-identity under it: on c7552 at the paper's 10,000 vectors, with
// the cone arena already memoized on the handle, a budget four times
// too small for a single chunk must keep the analysis' total heap
// allocation within the budget plus the returned Result and the
// O(gates) bookkeeping.
func TestAnalyzeBudgetAllocBound(t *testing.T) {
	c, err := gen.ISCAS85("c7552")
	if err != nil {
		t.Fatal(err)
	}
	cc := engine.MustCompile(c)
	if _, err := AnalyzeCompiled(cc, 64, stats.NewRNG(1), 0); err != nil {
		t.Fatal(err) // warms the memoized cone arena
	}
	const nVec, workers = 10000, 2
	nGates := len(c.Gates)
	nEdges := cc.FaninEdgeOffsets()[nGates]
	nWords := (nVec + 63) / 64
	piBytes := int64(len(c.Inputs())*nWords) * 8
	// Room for nWords/4 words of arenas: at least 4 chunks.
	perWord := int64(nGates+nEdges+workers*nGates) * 8
	budget := piBytes + perWord*int64(nWords/4)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := AnalyzeCompiledBudget(cc, nVec, stats.NewRNG(1), workers, budget)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	// Result: P1, Activity, the flat Pij arena, its row headers and the
	// PO column map. Bookkeeping: per-gate counters, the source list
	// and each worker's DP marks, plus closure and header slack.
	nPOs := len(c.Outputs())
	resultBytes := int64(2*nGates+nGates*nPOs)*8 + int64(nGates)*24 + int64(nPOs)*64
	bookkeeping := int64(8*nGates)*8 + 64<<10
	got := int64(after.TotalAlloc - before.TotalAlloc)
	if limit := budget + resultBytes + bookkeeping; got > limit {
		t.Fatalf("allocated %d bytes, limit %d (budget %d + result %d + bookkeeping %d)",
			got, limit, budget, resultBytes, bookkeeping)
	}
	if res.N != nVec {
		t.Fatalf("N = %d, want %d", res.N, nVec)
	}
}

// FuzzSim differentially fuzzes the sensitization kernel: on a random
// profile-generated netlist with a fuzzed vector count, seed, worker
// count and memory budget (from unbounded down to one-word chunks),
// AnalyzeCompiledBudget must equal the serial reference implementation
// word for word.
func FuzzSim(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(8), uint8(30), uint8(4), uint16(100), uint8(0), uint8(0))
	f.Add(uint64(7), uint64(5), uint8(4), uint8(60), uint8(6), uint16(517), uint8(2), uint8(1))
	f.Add(uint64(42), uint64(9), uint8(16), uint8(120), uint8(9), uint16(1000), uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, genSeed, simSeed uint64, pis, gates, depth uint8, nVec uint16, workers, budgetWords uint8) {
		p := gen.Profile{
			Name:  "fuzz",
			PIs:   2 + int(pis%24),
			POs:   1 + int(pis%8),
			Gates: 8 + int(gates),
			Depth: 2 + int(depth%16),
			Seed:  genSeed,
		}
		c, err := gen.Generate(p)
		if err != nil {
			t.Skip() // unsatisfiable profile, not a simulator bug
		}
		n := 1 + int(nVec%1200)
		nw := 1 + int(workers%4)
		cc := engine.MustCompile(c)
		// budgetWords 0 is unbounded; k > 0 leaves room for k words of
		// single-worker arenas, so 1 forces one-word chunks.
		var budget int64
		if k := int64(budgetWords % 24); k > 0 {
			nGates := len(c.Gates)
			nEdges := cc.FaninEdgeOffsets()[nGates]
			nWords := int64(n+63) / 64
			budget = int64(len(c.Inputs()))*nWords*8 + k*int64(nGates+nEdges+nGates)*8
		}
		want, err := analyzeReference(c, n, stats.NewRNG(simSeed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := AnalyzeCompiledBudget(cc, n, stats.NewRNG(simSeed), nw, budget)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, want, got, "budgeted kernel")
	})
}
