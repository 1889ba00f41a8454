package rank

import (
	"math"
	"testing"

	"sourcerank/internal/graph"
)

func TestHITSBipartiteCore(t *testing.T) {
	// Hubs 0,1 point at authorities 2,3; node 4 is isolated.
	g := graph.FromAdjacency([][]int32{
		{2, 3}, {2, 3}, {}, {}, {},
	})
	res, err := HITS(g, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatalf("not converged: %+v", res.Stats)
	}
	if res.Hubs[0] <= res.Hubs[2] || res.Hubs[1] <= res.Hubs[3] {
		t.Errorf("hubs wrong: %v", res.Hubs)
	}
	if res.Authorities[2] <= res.Authorities[0] || res.Authorities[3] <= res.Authorities[1] {
		t.Errorf("authorities wrong: %v", res.Authorities)
	}
	if res.Authorities[4] != 0 || res.Hubs[4] != 0 {
		t.Errorf("isolated node scored: %v %v", res.Hubs[4], res.Authorities[4])
	}
	// L2-normalized outputs.
	if math.Abs(res.Authorities.Norm2()-1) > 1e-9 {
		t.Errorf("authorities norm = %v", res.Authorities.Norm2())
	}
	if math.Abs(res.Hubs.Norm2()-1) > 1e-9 {
		t.Errorf("hubs norm = %v", res.Hubs.Norm2())
	}
}

func TestHITSStarAuthority(t *testing.T) {
	res, err := HITS(star(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Authorities); i++ {
		if res.Authorities[i] >= res.Authorities[0] {
			t.Errorf("star center not top authority: %v", res.Authorities)
		}
	}
	if res.Hubs[0] != 0 {
		t.Errorf("center should be no hub: %v", res.Hubs[0])
	}
}

func TestHITSEmptyGraph(t *testing.T) {
	if _, err := HITS(graph.NewBuilder(0).Build(), Options{}); err != ErrEmptyGraph {
		t.Errorf("err = %v, want ErrEmptyGraph", err)
	}
}

func TestHITSEdgelessGraph(t *testing.T) {
	res, err := HITS(graph.NewBuilder(4).Build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// No edges: all scores zero, no NaNs.
	for i := range res.Hubs {
		if res.Hubs[i] != 0 || res.Authorities[i] != 0 {
			t.Errorf("edgeless graph scored node %d", i)
		}
	}
}
