package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSCCSingleCycle(t *testing.T) {
	g := FromAdjacency([][]NodeID{{1}, {2}, {0}})
	r := SCC(g)
	if r.NumComponents() != 1 {
		t.Fatalf("components = %d, want 1", r.NumComponents())
	}
	if r.Sizes[0] != 3 {
		t.Errorf("size = %d, want 3", r.Sizes[0])
	}
}

func TestSCCChain(t *testing.T) {
	g := FromAdjacency([][]NodeID{{1}, {2}, {}})
	r := SCC(g)
	if r.NumComponents() != 3 {
		t.Fatalf("components = %d, want 3", r.NumComponents())
	}
	// Reverse topological order: edges point from higher component IDs to
	// lower ones, so comp(0) > comp(1) > comp(2).
	if !(r.Comp[0] > r.Comp[1] && r.Comp[1] > r.Comp[2]) {
		t.Errorf("component order wrong: %v", r.Comp)
	}
}

func TestSCCTwoCycles(t *testing.T) {
	// 0<->1 and 2<->3, bridge 1->2.
	g := FromAdjacency([][]NodeID{{1}, {0, 2}, {3}, {2}})
	r := SCC(g)
	if r.NumComponents() != 2 {
		t.Fatalf("components = %d, want 2", r.NumComponents())
	}
	if r.Comp[0] != r.Comp[1] || r.Comp[2] != r.Comp[3] || r.Comp[0] == r.Comp[2] {
		t.Errorf("grouping wrong: %v", r.Comp)
	}
}

func TestSCCEmptyAndSingle(t *testing.T) {
	r := SCC(NewBuilder(0).Build())
	if r.NumComponents() != 0 {
		t.Errorf("empty graph has %d components", r.NumComponents())
	}
	if c, s := r.Largest(); c != -1 || s != 0 {
		t.Errorf("Largest on empty = %d/%d", c, s)
	}
	r = SCC(NewBuilder(1).Build())
	if r.NumComponents() != 1 || r.Sizes[0] != 1 {
		t.Errorf("singleton: %+v", r)
	}
}

func TestSCCDeepChainNoOverflow(t *testing.T) {
	// A 200k-node chain would overflow a recursive Tarjan.
	const n = 200000
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1))
	}
	r := SCC(b.Build())
	if r.NumComponents() != n {
		t.Fatalf("components = %d, want %d", r.NumComponents(), n)
	}
}

func TestBowtieClassic(t *testing.T) {
	// in(0) -> core(1<->2) -> out(3); node 4 disconnected.
	g := FromAdjacency([][]NodeID{{1}, {2}, {1, 3}, {}, {}})
	bt := BowtieDecompose(g)
	if bt.Region[0] != In {
		t.Errorf("node 0 = %v, want in", bt.Region[0])
	}
	if bt.Region[1] != Core || bt.Region[2] != Core {
		t.Errorf("core wrong: %v %v", bt.Region[1], bt.Region[2])
	}
	if bt.Region[3] != Out {
		t.Errorf("node 3 = %v, want out", bt.Region[3])
	}
	if bt.Region[4] != Disconnected {
		t.Errorf("node 4 = %v, want disconnected", bt.Region[4])
	}
	if bt.Counts[Core] != 2 || bt.Counts[In] != 1 || bt.Counts[Out] != 1 || bt.Counts[Disconnected] != 1 {
		t.Errorf("counts = %v", bt.Counts)
	}
}

func TestBowtieEmpty(t *testing.T) {
	if bt := BowtieDecompose(NewBuilder(0).Build()); bt != nil {
		t.Error("empty graph should return nil")
	}
}

func TestBowtieRegionString(t *testing.T) {
	for _, r := range []BowtieRegion{Core, In, Out, Disconnected} {
		if r.String() == "" {
			t.Errorf("empty string for region %d", r)
		}
	}
}

// bruteSCC computes components by pairwise mutual reachability.
func bruteSCC(g *Graph) [][]bool {
	n := g.NumNodes()
	reach := make([][]bool, n)
	for v := 0; v < n; v++ {
		reach[v] = reachable(g, []NodeID{NodeID(v)})
	}
	same := make([][]bool, n)
	for i := 0; i < n; i++ {
		same[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			same[i][j] = reach[i][j] && reach[j][i]
		}
	}
	return same
}

// Property: Tarjan agrees with brute-force mutual reachability.
func TestQuickSCCMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Intn(80))
		r := SCC(g)
		same := bruteSCC(g)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (r.Comp[i] == r.Comp[j]) != same[i][j] {
					return false
				}
			}
		}
		// Sizes must sum to n.
		var total int32
		for _, s := range r.Sizes {
			total += s
		}
		return int(total) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: bowtie regions partition the node set and the core is the
// largest SCC.
func TestQuickBowtiePartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(100))
		bt := BowtieDecompose(g)
		total := 0
		for _, c := range bt.Counts {
			total += c
		}
		if total != n {
			return false
		}
		_, largest := SCC(g).Largest()
		return bt.Counts[Core] == int(largest)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
