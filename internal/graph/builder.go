package graph

import (
	"fmt"
	"slices"
)

// Builder accumulates edges and produces an immutable Graph. It
// deduplicates parallel edges and sorts successor lists at Build time.
// The zero value is ready to use.
type Builder struct {
	n int
	// keys packs each edge (u, v) as u<<32 | v, so integer order is
	// (u, v) order.
	keys []uint64
}

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
	b.keys = append(b.keys, uint64(u)<<32|uint64(v))
}

// Build produces the immutable graph. The builder remains usable; calling
// Build again after more AddEdge calls produces a new snapshot.
func (b *Builder) Build() *Graph {
	keys := slices.Clone(b.keys)
	slices.Sort(keys)
	keys = slices.Compact(keys)
	g := &Graph{
		n:      b.n,
		rowPtr: make([]int64, b.n+1),
		succ:   make([]NodeID, len(keys)),
	}
	for i, k := range keys {
		g.succ[i] = NodeID(uint32(k))
		g.rowPtr[k>>32+1]++
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

// Parts returns the graph's CSR arrays, the inverse of FromParts: row u's
// successors are succ[rowPtr[u]:rowPtr[u+1]]. The slices alias internal
// storage and must not be modified.
func (g *Graph) Parts() (rowPtr []int64, succ []NodeID) { return g.rowPtr, g.succ }

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
