package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func line(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1))
	}
	return b.Build()
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(0)
	u, v := NodeID(0), NodeID(1)
	b.AddEdge(u, v)
	b.AddEdge(u, v) // duplicate
	g := b.Build()
	if g.NumNodes() != 2 {
		t.Fatalf("nodes = %d, want 2", g.NumNodes())
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1 after dedup", g.NumEdges())
	}
	if !g.HasEdge(u, v) || g.HasEdge(v, u) {
		t.Error("edge direction wrong")
	}
}

func TestBuilderGrowsOnEdge(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(3, 7)
	g := b.Build()
	if g.NumNodes() != 8 {
		t.Errorf("nodes = %d, want 8", g.NumNodes())
	}
	if g.OutDegree(3) != 1 || g.OutDegree(0) != 0 {
		t.Error("degrees wrong after implicit growth")
	}
}

func TestBuilderNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for negative ID")
		}
	}()
	NewBuilder(1).AddEdge(-1, 0)
}

func TestSuccessorsSorted(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	g := b.Build()
	s := g.Successors(0)
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			t.Fatalf("successors not sorted: %v", s)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromAdjacency(t *testing.T) {
	g := FromAdjacency([][]NodeID{
		{1, 2},
		{2},
		{},
	})
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("shape %d/%d", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(0, 2) || g.HasEdge(2, 0) {
		t.Error("edges wrong")
	}
}

func TestTranspose(t *testing.T) {
	g := FromAdjacency([][]NodeID{{1}, {2}, {0, 1}})
	tr := g.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			if g.HasEdge(u, v) != tr.HasEdge(v, u) {
				t.Errorf("edge (%d,%d) not mirrored", u, v)
			}
		}
	}
}

func TestStats(t *testing.T) {
	g := FromAdjacency([][]NodeID{
		{0, 1}, // self loop + edge to 1
		{0},    // reciprocal with 0->1
		{},     // dangling
		{},     // isolated? node 3 has no in edges either
	})
	st := g.Stats()
	if st.Nodes != 4 || st.Edges != 3 {
		t.Fatalf("nodes/edges = %d/%d", st.Nodes, st.Edges)
	}
	if st.SelfLoops != 1 {
		t.Errorf("self loops = %d, want 1", st.SelfLoops)
	}
	if st.Reciprocal != 2 { // (0,1) and (1,0) each counted
		t.Errorf("reciprocal = %d, want 2", st.Reciprocal)
	}
	if st.Dangling != 2 {
		t.Errorf("dangling = %d, want 2", st.Dangling)
	}
	if st.Isolated != 2 { // nodes 2 and 3: no in, no out
		t.Errorf("isolated = %d, want 2", st.Isolated)
	}
	if st.MaxOut != 2 || st.MaxIn != 2 {
		t.Errorf("max degrees = %d/%d", st.MaxOut, st.MaxIn)
	}
}

func randomGraph(rng *rand.Rand, n, edges int) *Graph {
	b := NewBuilder(n)
	for k := 0; k < edges; k++ {
		b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	return b.Build()
}

// Property: any built graph validates, and transpose preserves edge count
// and degree totals.
func TestQuickBuildValidates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		g := randomGraph(rng, n, rng.Intn(300))
		if g.Validate() != nil {
			return false
		}
		tr := g.Transpose()
		if tr.Validate() != nil {
			return false
		}
		if tr.NumEdges() != g.NumEdges() {
			return false
		}
		// In-degree of u in g equals out-degree of u in transpose.
		indeg := make([]int, n)
		for u := 0; u < n; u++ {
			for _, v := range g.Successors(NodeID(u)) {
				indeg[v]++
			}
		}
		for u := 0; u < n; u++ {
			if tr.OutDegree(NodeID(u)) != indeg[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: double transpose is the identity.
func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(200))
		tt := g.Transpose().Transpose()
		if tt.NumNodes() != g.NumNodes() || tt.NumEdges() != g.NumEdges() {
			return false
		}
		for u := 0; u < n; u++ {
			a, b := g.Successors(NodeID(u)), tt.Successors(NodeID(u))
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
