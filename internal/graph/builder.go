package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates edges and produces an immutable Graph. It
// deduplicates parallel edges and sorts successor lists at Build time.
// The zero value is ready to use.
type Builder struct {
	n     int
	edges []edge
}

type edge struct{ u, v NodeID }

// NewBuilder returns a builder pre-sized for n nodes. Adding an edge with
// a larger endpoint grows the node count.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the directed edge (u, v), growing the node count if
// either endpoint is new. Negative IDs panic.
func (b *Builder) AddEdge(u, v NodeID) {
	if u < 0 || v < 0 {
		panic(fmt.Sprintf("graph: negative node id (%d, %d)", u, v))
	}
	if int(u) >= b.n {
		b.n = int(u) + 1
	}
	if int(v) >= b.n {
		b.n = int(v) + 1
	}
	b.edges = append(b.edges, edge{u, v})
}

// Build produces the immutable graph. The builder remains usable; calling
// Build again after more AddEdge calls produces a new snapshot.
func (b *Builder) Build() *Graph {
	es := make([]edge, len(b.edges))
	copy(es, b.edges)
	sort.Slice(es, func(i, j int) bool {
		if es[i].u != es[j].u {
			return es[i].u < es[j].u
		}
		return es[i].v < es[j].v
	})
	g := &Graph{
		n:      b.n,
		rowPtr: make([]int64, b.n+1),
	}
	g.succ = make([]NodeID, 0, len(es))
	for i := 0; i < len(es); {
		j := i + 1
		for j < len(es) && es[j] == es[i] {
			j++ // skip duplicates
		}
		g.succ = append(g.succ, es[i].v)
		g.rowPtr[es[i].u+1]++
		i = j
	}
	for i := 0; i < b.n; i++ {
		g.rowPtr[i+1] += g.rowPtr[i]
	}
	return g
}

// FromParts assembles a Graph directly from CSR arrays, skipping the
// Builder's sort-and-dedup pass. rowPtr must have n+1 monotone entries
// with rowPtr[0] == 0 and rowPtr[n] == len(succ); each row of succ must
// already be strictly increasing and in range — producers that decode or
// merge sorted adjacency (the parallel webgraph decoder) guarantee this
// per element. The cheap structural invariants are checked here; call
// Validate for the full per-edge check. The slices are retained, not
// copied.
func FromParts(n int, rowPtr []int64, succ []NodeID) (*Graph, error) {
	if n < 0 || len(rowPtr) != n+1 {
		return nil, fmt.Errorf("%w: rowPtr length %d, want %d", ErrCorrupt, len(rowPtr), n+1)
	}
	if rowPtr[0] != 0 || int(rowPtr[n]) != len(succ) {
		return nil, fmt.Errorf("%w: rowPtr bounds [%d, %d] vs %d edges", ErrCorrupt, rowPtr[0], rowPtr[n], len(succ))
	}
	for u := 0; u < n; u++ {
		if rowPtr[u] > rowPtr[u+1] {
			return nil, fmt.Errorf("%w: node %d has negative extent", ErrCorrupt, u)
		}
	}
	return &Graph{n: n, rowPtr: rowPtr, succ: succ}, nil
}

// FromAdjacency builds a graph from an explicit adjacency list. Row u of
// adj lists the successors of node u; duplicate and unsorted entries are
// tolerated.
func FromAdjacency(adj [][]NodeID) *Graph {
	b := NewBuilder(len(adj))
	for u, succ := range adj {
		for _, v := range succ {
			b.AddEdge(NodeID(u), v)
		}
	}
	return b.Build()
}
