package rank

import (
	"math"
	"testing"

	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
)

// star returns a graph where nodes 1..n-1 all point at node 0.
func star(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(int32(i), 0)
	}
	return b.Build()
}

// cycle returns the directed cycle 0 -> 1 -> ... -> n-1 -> 0.
func cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.Build()
}

func TestPageRankCycleIsUniform(t *testing.T) {
	res, err := PageRank(cycle(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatalf("not converged: %+v", res.Stats)
	}
	for i, s := range res.Scores {
		if math.Abs(s-0.2) > 1e-6 {
			t.Errorf("score[%d] = %v, want 0.2 on a symmetric cycle", i, s)
		}
	}
}

func TestPageRankStarCenterWins(t *testing.T) {
	res, err := PageRank(star(10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		if res.Scores[i] >= res.Scores[0] {
			t.Errorf("leaf %d outranks center", i)
		}
	}
	if math.Abs(res.Scores.Norm1()-1) > 1e-8 {
		t.Errorf("sum = %v, want 1", res.Scores.Norm1())
	}
}

func TestPageRankKnownValues(t *testing.T) {
	// Two-node graph: 0 -> 1, 1 -> 0. Symmetric, so scores are 0.5 each.
	g := graph.FromAdjacency([][]int32{{1}, {0}})
	res, err := PageRank(g, Options{Alpha: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Scores {
		if math.Abs(s-0.5) > 1e-9 {
			t.Errorf("score[%d] = %v, want 0.5", i, s)
		}
	}
}

func TestPageRankDanglingMass(t *testing.T) {
	// 0 -> 1, 1 dangles. Closed form with uniform teleport+dangling fix:
	// Solving x0 = (1-a)/2 + a*x1/2, x1 = (1-a)/2 + a*x0 + a*x1/2.
	g := graph.FromAdjacency([][]int32{{1}, {}})
	a := 0.85
	res, err := PageRank(g, Options{Alpha: a})
	if err != nil {
		t.Fatal(err)
	}
	x0 := res.Scores[0]
	x1 := res.Scores[1]
	if math.Abs(x0+x1-1) > 1e-9 {
		t.Fatalf("mass lost: %v", x0+x1)
	}
	// Verify fixed-point equations directly.
	if math.Abs(x0-((1-a)/2+a*x1/2)) > 1e-8 {
		t.Errorf("x0 equation violated: x0=%v x1=%v", x0, x1)
	}
	if math.Abs(x1-((1-a)/2+a*x0+a*x1/2)) > 1e-8 {
		t.Errorf("x1 equation violated: x0=%v x1=%v", x0, x1)
	}
}

func TestPageRankEmptyGraph(t *testing.T) {
	if _, err := PageRank(graph.NewBuilder(0).Build(), Options{}); err != ErrEmptyGraph {
		t.Errorf("err = %v, want ErrEmptyGraph", err)
	}
}

func TestPageRankBadTeleport(t *testing.T) {
	if _, err := PageRank(cycle(3), Options{Teleport: linalg.NewUniformVector(5)}); err == nil {
		t.Error("teleport length mismatch accepted")
	}
}

func TestPageRankLinearMatchesPower(t *testing.T) {
	g := graph.FromAdjacency([][]int32{
		{1, 2}, {2}, {0}, {0, 1, 2},
	})
	pm, err := PageRank(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lin, err := PageRankLinear(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.L2Distance(pm.Scores, lin.Scores); d > 1e-8 {
		t.Errorf("power vs linear differ by %g", d)
	}
}

func TestStationaryRespectsTeleport(t *testing.T) {
	// Personalized teleport should bias the stationary distribution.
	tpt := linalg.Vector{0.9, 0.1, 0}
	g := cycle(3)
	m, err := transition(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := StationaryT(m.TransposeParallel(1), Options{Teleport: tpt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[0] <= res.Scores[2] {
		t.Errorf("teleport bias not reflected: %v", res.Scores)
	}
}

func TestTrustRankDecaysWithDistance(t *testing.T) {
	// Chain 0 -> 1 -> 2 -> 3 with trusted seed {0}: trust decays along
	// the chain.
	g := graph.FromAdjacency([][]int32{{1}, {2}, {3}, {}})
	res, err := TrustRank(g, []int32{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if res.Scores[i] <= res.Scores[i+1] {
			t.Errorf("trust did not decay at %d: %v", i, res.Scores)
		}
	}
}

func TestTrustRankErrors(t *testing.T) {
	g := cycle(3)
	if _, err := TrustRank(g, nil, Options{}); err == nil {
		t.Error("empty seed set accepted")
	}
	if _, err := TrustRank(g, []int32{7}, Options{}); err == nil {
		t.Error("out-of-range seed accepted")
	}
}

func TestAlphaDefault(t *testing.T) {
	var o Options
	if o.alpha() != 0.85 {
		t.Errorf("default alpha = %v", o.alpha())
	}
	o.Alpha = 0.9
	if o.alpha() != 0.9 {
		t.Errorf("explicit alpha = %v", o.alpha())
	}
}
