package rank

import (
	"math"
	"testing"

	"sourcerank/internal/graph"
)

func TestSALSAAuthorityProportionalToInDegree(t *testing.T) {
	// The SALSA authority chain is a reversible walk whose stationary
	// distribution is proportional to in-degree within a connected
	// authority component. Edges: 0->2, 1->2, 1->3.
	g := graph.FromAdjacency([][]int32{{2}, {2, 3}, {}, {}})
	res, err := SALSA(g, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatalf("not converged: %+v", res.Stats)
	}
	// indeg(2)=2, indeg(3)=1 -> authorities (2/3, 1/3).
	if math.Abs(res.Authorities[2]-2.0/3) > 1e-9 {
		t.Errorf("auth[2] = %v, want 2/3", res.Authorities[2])
	}
	if math.Abs(res.Authorities[3]-1.0/3) > 1e-9 {
		t.Errorf("auth[3] = %v, want 1/3", res.Authorities[3])
	}
	if res.Authorities[0] != 0 || res.Authorities[1] != 0 {
		t.Errorf("pure hubs scored as authorities: %v", res.Authorities)
	}
}

func TestSALSAHubProportionalToOutDegree(t *testing.T) {
	// Mirror property: hub weights ∝ out-degree within a connected hub
	// component. Same graph: outdeg(0)=1, outdeg(1)=2.
	g := graph.FromAdjacency([][]int32{{2}, {2, 3}, {}, {}})
	res, err := SALSA(g, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Hubs[0]-1.0/3) > 1e-9 {
		t.Errorf("hub[0] = %v, want 1/3", res.Hubs[0])
	}
	if math.Abs(res.Hubs[1]-2.0/3) > 1e-9 {
		t.Errorf("hub[1] = %v, want 2/3", res.Hubs[1])
	}
}

func TestSALSAResistsTightKnitCommunity(t *testing.T) {
	// The classic HITS failure mode: a small complete bipartite clique
	// captures the principal eigenvector and starves everything else.
	// SALSA's per-component degree weighting keeps the larger structure
	// scored. Build: clique hubs {0,1} -> clique auths {2,3} (complete),
	// plus a popular independent authority 4 with three hubs {5,6,7}.
	g := graph.FromAdjacency([][]int32{
		{2, 3}, {2, 3}, {}, {}, {}, {4}, {4}, {4},
	})
	hits, err := HITS(g, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	salsa, err := SALSA(g, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	// HITS starves node 4 (different component from the principal one).
	hitsRatio := hits.Authorities[4] / (hits.Authorities[2] + 1e-300)
	salsaRatio := salsa.Authorities[4] / (salsa.Authorities[2] + 1e-300)
	if salsaRatio <= hitsRatio {
		t.Errorf("SALSA ratio %v should exceed HITS ratio %v for the independent authority",
			salsaRatio, hitsRatio)
	}
	if salsa.Authorities[4] <= 0 {
		t.Error("SALSA starved the independent authority")
	}
}

func TestSALSAEmptyGraph(t *testing.T) {
	if _, err := SALSA(graph.NewBuilder(0).Build(), Options{}); err != ErrEmptyGraph {
		t.Errorf("err = %v, want ErrEmptyGraph", err)
	}
}

func TestSALSAEdgelessGraph(t *testing.T) {
	res, err := SALSA(graph.NewBuilder(3).Build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Authorities {
		if math.IsNaN(res.Authorities[i]) || math.IsNaN(res.Hubs[i]) {
			t.Fatalf("NaN scores on edgeless graph")
		}
	}
}

func TestSALSAScoresSumToOne(t *testing.T) {
	g := star(8)
	res, err := SALSA(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Authorities.Norm1()-1) > 1e-9 {
		t.Errorf("authorities sum = %v", res.Authorities.Norm1())
	}
	if math.Abs(res.Hubs.Norm1()-1) > 1e-9 {
		t.Errorf("hubs sum = %v", res.Hubs.Norm1())
	}
}
