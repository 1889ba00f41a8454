package throttle_test

import (
	"math"
	"math/rand"
	"testing"

	"sourcerank/internal/core"
	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/rank"
	"sourcerank/internal/source"
	"sourcerank/internal/throttle"
)

// randomStochastic builds a random row-stochastic matrix with the shapes
// Apply must handle: dense-ish rows, rows with/without self-edges, pure
// self-loops, and structurally empty rows.
func randomStochastic(t *testing.T, rng *rand.Rand, n int) *linalg.CSR {
	t.Helper()
	var entries []linalg.Entry
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0: // structurally empty row
			continue
		case 1: // pure self-loop
			entries = append(entries, linalg.Entry{Row: i, Col: i, Val: 1})
			continue
		}
		deg := rng.Intn(6) + 1
		if deg > n {
			deg = n
		}
		cols := map[int]float64{}
		if rng.Intn(2) == 0 {
			cols[i] = rng.Float64() + 1e-3 // self-edge
		}
		for len(cols) < deg {
			cols[rng.Intn(n)] = rng.Float64() + 1e-3
		}
		var sum float64
		for _, w := range cols {
			sum += w
		}
		for c, w := range cols {
			entries = append(entries, linalg.Entry{Row: i, Col: c, Val: w / sum})
		}
	}
	m, err := linalg.NewCSR(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// randomKappa draws κ with mass on the exact endpoints 0 and 1, where
// the transform switches regimes.
func randomKappa(rng *rand.Rand, n int) []float64 {
	kappa := make([]float64, n)
	for i := range kappa {
		switch rng.Intn(4) {
		case 0:
			kappa[i] = 0
		case 1:
			kappa[i] = 1
		default:
			kappa[i] = rng.Float64()
		}
	}
	return kappa
}

// TestApplyPropertiesRandom asserts, over many random matrices and κ
// vectors, the two invariants the paper's §3.3 transform guarantees:
// every T” row sums to 1, and every diagonal meets its throttle floor.
func TestApplyPropertiesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		n := rng.Intn(60) + 1
		tm := randomStochastic(t, rng, n)
		kappa := randomKappa(rng, n)
		tpp, err := throttle.Apply(tm, kappa)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < n; i++ {
			sum := tpp.RowSum(i)
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("trial %d: row %d sums to %.17g", trial, i, sum)
			}
			var diag float64
			cols, vals := tpp.Row(i)
			for k, c := range cols {
				if int(c) == i {
					diag = vals[k]
				}
			}
			if diag < kappa[i]-1e-12 {
				t.Fatalf("trial %d: T''[%d][%d] = %.17g < kappa %.17g", trial, i, i, diag, kappa[i])
			}
		}
	}
}

// TestApplyPropertiesOnSourceGraphs repeats the invariants on realistic
// consensus-weighted source graphs from the corpus generator.
func TestApplyPropertiesOnSourceGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, seed := range []uint64{1, 2, 3} {
		ds, err := gen.GeneratePreset(gen.UK2002, 0.001, seed)
		if err != nil {
			t.Fatal(err)
		}
		sg, err := source.Build(ds.Pages, source.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := sg.NumSources()
		kappa := randomKappa(rng, n)
		tpp, err := throttle.Apply(sg.T, kappa)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if sum := tpp.RowSum(i); math.Abs(sum-1) > 1e-12 {
				t.Fatalf("seed %d: row %d sums to %.17g", seed, i, sum)
			}
			cols, vals := tpp.Row(i)
			var diag float64
			for k, c := range cols {
				if int(c) == i {
					diag = vals[k]
				}
			}
			if diag < kappa[i]-1e-12 {
				t.Fatalf("seed %d: diagonal %d below kappa", seed, i)
			}
		}
	}
}

// TestZeroKappaReproducesSourceRank checks that κ = 0 is the identity:
// the transformed matrix equals T entry-for-entry (up to the mandatory
// self-loop on structurally empty rows), and the stationary vector of
// the throttled chain matches plain SourceRank within 1e-12.
func TestZeroKappaReproducesSourceRank(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 11)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := source.Build(ds.Pages, source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := sg.NumSources()
	zero := make([]float64, n)
	tpp, err := throttle.Apply(sg.T, zero)
	if err != nil {
		t.Fatal(err)
	}
	// Matrix identity: same sparsity and values.
	for i := 0; i < n; i++ {
		ca, va := sg.T.Row(i)
		cb, vb := tpp.Row(i)
		if len(ca) != len(cb) {
			t.Fatalf("row %d: %d entries became %d", i, len(ca), len(cb))
		}
		for k := range ca {
			if ca[k] != cb[k] || math.Abs(va[k]-vb[k]) > 1e-12 {
				t.Fatalf("row %d entry %d changed: (%d,%g) vs (%d,%g)", i, k, ca[k], va[k], cb[k], vb[k])
			}
		}
	}
	// Ranking identity: solve both chains with the same options.
	throttled, err := core.Rank(sg, zero, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := rank.StationaryT(sg.T.TransposeParallel(1), rank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.L2Distance(throttled.Scores, plain.Scores); d > 1e-12 {
		t.Fatalf("zero-kappa SRSR diverges from SourceRank by %g", d)
	}
}
