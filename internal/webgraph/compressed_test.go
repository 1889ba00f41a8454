package webgraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sourcerank/internal/graph"
)

func randomGraph(rng *rand.Rand, n, edges int) *graph.Graph {
	b := graph.NewBuilder(n)
	for k := 0; k < edges; k++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

func graphsEqual(a, b *graph.Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for u := 0; u < a.NumNodes(); u++ {
		sa, sb := a.Successors(int32(u)), b.Successors(int32(u))
		if len(sa) != len(sb) {
			return false
		}
		for i := range sa {
			if sa[i] != sb[i] {
				return false
			}
		}
	}
	return true
}

func TestCompressDecompress(t *testing.T) {
	g := graph.FromAdjacency([][]int32{{1, 2}, {0, 2}, {}})
	c, err := Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() != 3 || c.NumEdges() != 4 {
		t.Fatalf("shape %d/%d", c.NumNodes(), c.NumEdges())
	}
	back, err := c.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, back) {
		t.Error("decompress differs from original")
	}
}

func TestCompressionShrinksLocalGraphs(t *testing.T) {
	// A graph with strong locality (edges to nearby IDs) should compress
	// well below 4 bytes/edge of the raw representation.
	b := graph.NewBuilder(10000)
	rng := rand.New(rand.NewSource(3))
	for u := 0; u < 10000; u++ {
		for k := 0; k < 10; k++ {
			v := u + rng.Intn(100) - 50
			if v < 0 || v >= 10000 || v == u {
				continue
			}
			b.AddEdge(int32(u), int32(v))
		}
	}
	g := b.Build()
	c, err := Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	if bpe := c.BitsPerEdge(); bpe >= 16 {
		t.Errorf("bits/edge = %.1f, want < 16 for a local graph", bpe)
	}
}

func TestEmptyGraphCompress(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	c, err := Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	if c.BitsPerEdge() != 0 {
		t.Errorf("BitsPerEdge = %v for empty graph", c.BitsPerEdge())
	}
	back, err := c.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != 0 || back.NumEdges() != 0 {
		t.Errorf("empty graph decompressed to %d nodes, %d edges", back.NumNodes(), back.NumEdges())
	}
}

// Property: compress→decompress is the identity.
func TestQuickCompressedPipeline(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		g := randomGraph(rng, n, rng.Intn(500))
		c, err := Compress(g)
		if err != nil {
			return false
		}
		back, err := c.Decompress()
		if err != nil {
			return false
		}
		return graphsEqual(g, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
