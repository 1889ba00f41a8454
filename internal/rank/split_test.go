package rank

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
)

// selfEdged is a random topology in which every node keeps a self-edge,
// as every source does (paper §3.3), and a third of them nothing else.
func selfEdged(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		b.AddEdge(int32(u), int32(u))
		if rng.Intn(3) == 0 {
			continue
		}
		for d := rng.Intn(6); d >= 0; d-- {
			b.AddEdge(int32(u), int32(rng.Intn(n)))
		}
	}
	return b.Build()
}

// TestSolveSplitPairIsSolo: PageRank and TrustRank solved in one sweep
// are each bitwise the walk solved alone, cold and warm, and each passes
// one power step at the paper's threshold and lies within 1e-7 L1 of a
// power solve to 1e-14.
func TestSolveSplitPairIsSolo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := selfEdged(rng, 400)
	mt := TransitionT(g)
	trust, err := TrustTeleport(mt.Rows, []int32{2, 17, 301})
	if err != nil {
		t.Fatal(err)
	}
	warm := linalg.NewVector(mt.Rows)
	for i := range warm {
		warm[i] = rng.Float64()
	}
	warm.Normalize1()
	for _, x0 := range []linalg.Vector{nil, warm} {
		walks := []Options{{Workers: 2, X0: x0}, {Workers: 2, Teleport: trust, X0: x0}}
		var pair [2]*Result
		if err := SolveSplit(mt, walks, func(j int, r *Result) { pair[j] = r }); err != nil {
			t.Fatal(err)
		}
		for j, w := range walks {
			var solo *Result
			if err := SolveSplit(mt, []Options{w}, func(_ int, r *Result) { solo = r }); err != nil {
				t.Fatal(err)
			}
			if pair[j].Stats != solo.Stats || !slices.Equal(pair[j].Scores, solo.Scores) {
				t.Fatalf("warm=%v walk %d: paired %+v differs from solo %+v", x0 != nil, j, pair[j].Stats, solo.Stats)
			}
			tele := w.Teleport
			if tele == nil {
				tele = linalg.NewUniformVector(mt.Rows)
			}
			fp, err := linalg.NewFusedPower(mt, 0.85, tele, linalg.ResidualL2, 1)
			if err != nil {
				t.Fatal(err)
			}
			if step := fp.Step(linalg.NewVector(mt.Rows), solo.Scores); !(step < 1e-9) {
				t.Errorf("warm=%v walk %d: one power step moves it by %g", x0 != nil, j, step)
			}
			fp.Close()
			ref, _, err := linalg.PowerMethodT(mt, 0.85, tele, nil, linalg.SolverOptions{Tol: 1e-14})
			if err != nil {
				t.Fatal(err)
			}
			var l1 float64
			for i := range ref {
				l1 += math.Abs(ref[i] - solo.Scores[i])
			}
			if l1 > 1e-7 {
				t.Errorf("warm=%v walk %d: %g in L1 from the fixed point", x0 != nil, j, l1)
			}
		}
	}
}

// TestSolveSplitErrors: a split solve takes one or two float64 walks
// sharing alpha and workers, with teleports and starts of the
// operand's size.
func TestSolveSplitErrors(t *testing.T) {
	mt := TransitionT(cycle(4))
	none := func(int, *Result) { t.Fatal("a rejected solve handed a walk over") }
	for name, walks := range map[string][]Options{
		"no walk":          nil,
		"three walks":      {{}, {}, {}},
		"alphas":           {{}, {Alpha: 0.9}},
		"float32":          {{Precision: linalg.Float32}},
		"workers":          {{}, {Workers: 3}},
		"short teleport":   {{Teleport: linalg.NewUniformVector(3)}},
		"short warm start": {{}, {X0: linalg.NewUniformVector(5)}},
	} {
		if err := SolveSplit(mt, walks, none); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
