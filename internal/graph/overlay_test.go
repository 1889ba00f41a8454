package graph

import (
	"math/rand"
	"slices"
	"testing"
)

func buildGraph(t *testing.T, n int, edges [][2]NodeID) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func TestOverlayReadThrough(t *testing.T) {
	g := buildGraph(t, 4, [][2]NodeID{{0, 1}, {0, 2}, {1, 3}, {3, 3}})
	o := NewOverlay(g)
	if o.NumNodes() != 4 || o.NumEdges() != 4 {
		t.Fatalf("overlay dims = (%d, %d), want (4, 4)", o.NumNodes(), o.NumEdges())
	}
	if o.PatchedRows() != 0 {
		t.Fatal("fresh overlay should carry no patches")
	}
	for u := 0; u < 4; u++ {
		if !slices.Equal(o.Successors(NodeID(u)), g.Successors(NodeID(u))) {
			t.Fatalf("row %d differs from base", u)
		}
	}
}

func TestOverlaySetRowAndCompact(t *testing.T) {
	g := buildGraph(t, 4, [][2]NodeID{{0, 1}, {0, 2}, {1, 3}})
	o := NewOverlay(g)
	if err := o.SetRow(0, []NodeID{3}); err != nil {
		t.Fatalf("SetRow: %v", err)
	}
	if err := o.SetRow(2, []NodeID{0, 1, 3}); err != nil {
		t.Fatalf("SetRow: %v", err)
	}
	first := o.AddNodes(2)
	if first != 4 || o.NumNodes() != 6 {
		t.Fatalf("AddNodes: first=%d n=%d", first, o.NumNodes())
	}
	if err := o.SetRow(5, []NodeID{0, 4}); err != nil {
		t.Fatalf("SetRow appended: %v", err)
	}
	if got := o.NumEdges(); got != 7 {
		t.Fatalf("NumEdges = %d, want 7", got)
	}
	if o.PatchedRows() != 3 {
		t.Fatalf("PatchedRows = %d, want 3", o.PatchedRows())
	}

	c := o.Compact()
	if err := c.Validate(); err != nil {
		t.Fatalf("compacted Validate: %v", err)
	}
	want := [][]NodeID{{3}, {3}, {0, 1, 3}, nil, nil, {0, 4}}
	for u, w := range want {
		if !slices.Equal(c.Successors(NodeID(u)), w) {
			t.Fatalf("compacted row %d = %v, want %v", u, c.Successors(NodeID(u)), w)
		}
	}
	if o.PatchedRows() != 0 || o.NumNodes() != c.NumNodes() || o.NumEdges() != c.NumEdges() {
		t.Fatal("overlay should reset onto compacted graph")
	}
}

func TestOverlaySetRowEqualToBaseDropsPatch(t *testing.T) {
	g := buildGraph(t, 3, [][2]NodeID{{0, 1}, {0, 2}})
	o := NewOverlay(g)
	if err := o.SetRow(0, []NodeID{1}); err != nil {
		t.Fatalf("SetRow: %v", err)
	}
	if o.PatchedRows() != 1 || o.NumEdges() != 1 {
		t.Fatalf("after patch: rows=%d edges=%d", o.PatchedRows(), o.NumEdges())
	}
	if err := o.SetRow(0, []NodeID{1, 2}); err != nil {
		t.Fatalf("SetRow back: %v", err)
	}
	if o.PatchedRows() != 0 || o.NumEdges() != 2 {
		t.Fatalf("restoring base row should drop the patch: rows=%d edges=%d", o.PatchedRows(), o.NumEdges())
	}
}

func TestOverlaySetRowRejectsInvalid(t *testing.T) {
	g := buildGraph(t, 3, [][2]NodeID{{0, 1}})
	o := NewOverlay(g)
	cases := []struct {
		name string
		u    NodeID
		row  []NodeID
	}{
		{"row out of range", 3, []NodeID{0}},
		{"negative row", -1, []NodeID{0}},
		{"target out of range", 0, []NodeID{3}},
		{"negative target", 0, []NodeID{-1}},
		{"unsorted", 0, []NodeID{2, 1}},
		{"duplicate", 0, []NodeID{1, 1}},
	}
	for _, c := range cases {
		if err := o.SetRow(c.u, c.row); err == nil {
			t.Errorf("%s: SetRow accepted invalid input", c.name)
		}
	}
	if o.PatchedRows() != 0 || o.NumEdges() != 1 {
		t.Fatalf("rejected SetRow mutated overlay: rows=%d edges=%d", o.PatchedRows(), o.NumEdges())
	}
}

// TestOverlayMatchesRebuild drives random row replacements and node
// growth through an overlay and checks every read, plus the final
// compaction, against a from-scratch rebuild of the same topology.
func TestOverlayMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 20
	rows := make([][]NodeID, n)
	var base *Graph
	{
		b := NewBuilder(n)
		for u := 0; u < n; u++ {
			deg := rng.Intn(4)
			seen := map[NodeID]bool{}
			for j := 0; j < deg; j++ {
				v := NodeID(rng.Intn(n))
				if !seen[v] {
					seen[v] = true
					b.AddEdge(NodeID(u), v)
					rows[u] = append(rows[u], v)
				}
			}
			slices.Sort(rows[u])
		}
		base = b.Build()
	}
	o := NewOverlay(base)
	for step := 0; step < 200; step++ {
		if rng.Intn(10) == 0 {
			o.AddNodes(1)
			rows = append(rows, nil)
			n++
			continue
		}
		u := NodeID(rng.Intn(n))
		deg := rng.Intn(5)
		seen := map[NodeID]bool{}
		var row []NodeID
		for j := 0; j < deg; j++ {
			v := NodeID(rng.Intn(n))
			if !seen[v] {
				seen[v] = true
				row = append(row, v)
			}
		}
		slices.Sort(row)
		if err := o.SetRow(u, row); err != nil {
			t.Fatalf("step %d SetRow: %v", step, err)
		}
		rows[u] = row
		// Occasionally compact mid-stream; reads must be unaffected.
		if rng.Intn(40) == 0 {
			o.Compact()
		}
	}
	var wantEdges int64
	for u := 0; u < n; u++ {
		if !slices.Equal(o.Successors(NodeID(u)), rows[u]) {
			t.Fatalf("row %d = %v, want %v", u, o.Successors(NodeID(u)), rows[u])
		}
		wantEdges += int64(len(rows[u]))
	}
	if o.NumEdges() != wantEdges {
		t.Fatalf("NumEdges = %d, want %d", o.NumEdges(), wantEdges)
	}
	c := o.Compact()
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for u := 0; u < n; u++ {
		if !slices.Equal(c.Successors(NodeID(u)), rows[u]) {
			t.Fatalf("compacted row %d mismatch", u)
		}
	}
}
