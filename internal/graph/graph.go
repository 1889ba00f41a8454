// Package graph provides the directed-graph substrate shared by the page
// graph and the source graph: a compact immutable adjacency structure in
// compressed-sparse-row form, a mutable builder, transposition, degree
// statistics, and structural validation.
//
// Node identifiers are dense int32 indices in [0, N); the higher layers
// (internal/pagegraph, internal/source) maintain the mapping from URLs and
// hosts to indices.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID identifies a node in a graph. IDs are dense: a graph with N nodes
// uses exactly the IDs 0..N-1.
type NodeID = int32

// Graph is an immutable directed graph in CSR form. Successor lists are
// sorted and duplicate-free.
type Graph struct {
	n      int
	rowPtr []int64
	succ   []NodeID
}

// ErrCorrupt reports a structurally invalid graph encoding.
var ErrCorrupt = errors.New("graph: corrupt structure")

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.succ)) }

// OutDegree returns the out-degree of node u.
func (g *Graph) OutDegree(u NodeID) int {
	return int(g.rowPtr[u+1] - g.rowPtr[u])
}

// Successors returns the sorted successor list of u. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Successors(u NodeID) []NodeID {
	return g.succ[g.rowPtr[u]:g.rowPtr[u+1]]
}

// HasEdge reports whether the edge (u, v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	s := g.Successors(u)
	k := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return k < len(s) && s[k] == v
}

// Transpose returns the graph with every edge reversed. The paper's
// spam-proximity computation (§5) runs an inverse-PageRank walk on exactly
// this reversal of the source graph.
func (g *Graph) Transpose() *Graph {
	t := &Graph{
		n:      g.n,
		rowPtr: make([]int64, g.n+1),
		succ:   make([]NodeID, len(g.succ)),
	}
	for _, v := range g.succ {
		t.rowPtr[v+1]++
	}
	for i := 0; i < g.n; i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}
	next := make([]int64, g.n)
	copy(next, t.rowPtr[:g.n])
	for u := 0; u < g.n; u++ {
		for _, v := range g.Successors(NodeID(u)) {
			t.succ[next[v]] = NodeID(u)
			next[v]++
		}
	}
	// Each reversed successor list was filled in increasing source order,
	// so it is already sorted.
	return t
}

// Validate checks structural invariants and returns a wrapped ErrCorrupt
// on failure.
func (g *Graph) Validate() error {
	if g.n < 0 {
		return fmt.Errorf("%w: negative node count %d", ErrCorrupt, g.n)
	}
	if len(g.rowPtr) != g.n+1 {
		return fmt.Errorf("%w: rowPtr length %d, want %d", ErrCorrupt, len(g.rowPtr), g.n+1)
	}
	if g.rowPtr[0] != 0 || int(g.rowPtr[g.n]) != len(g.succ) {
		return fmt.Errorf("%w: rowPtr bounds [%d, %d] vs %d edges", ErrCorrupt, g.rowPtr[0], g.rowPtr[g.n], len(g.succ))
	}
	for u := 0; u < g.n; u++ {
		if g.rowPtr[u] > g.rowPtr[u+1] {
			return fmt.Errorf("%w: node %d has negative extent", ErrCorrupt, u)
		}
		s := g.Successors(NodeID(u))
		for i, v := range s {
			if v < 0 || int(v) >= g.n {
				return fmt.Errorf("%w: node %d successor %d out of range", ErrCorrupt, u, v)
			}
			if i > 0 && s[i-1] >= v {
				return fmt.Errorf("%w: node %d successors not strictly increasing", ErrCorrupt, u)
			}
		}
	}
	return nil
}

// DegreeStats summarizes a graph's degree distribution.
type DegreeStats struct {
	Nodes       int
	Edges       int64
	MaxOut      int
	MaxIn       int
	Dangling    int     // nodes with out-degree 0
	Isolated    int     // nodes with in-degree 0 and out-degree 0
	MeanOut     float64 // Edges / Nodes
	SelfLoops   int64
	Reciprocal  int64 // edges (u,v) with v!=u where (v,u) also exists
	InDegreeZer int   // nodes with in-degree 0
}

// Stats computes degree statistics in a single pass plus a transpose-free
// in-degree count.
func (g *Graph) Stats() DegreeStats {
	st := DegreeStats{Nodes: g.n, Edges: g.NumEdges()}
	indeg := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		d := g.OutDegree(NodeID(u))
		if d > st.MaxOut {
			st.MaxOut = d
		}
		if d == 0 {
			st.Dangling++
		}
		for _, v := range g.Successors(NodeID(u)) {
			indeg[v]++
			if v == NodeID(u) {
				st.SelfLoops++
			} else if g.HasEdge(v, NodeID(u)) {
				st.Reciprocal++
			}
		}
	}
	for u := 0; u < g.n; u++ {
		if indeg[u] > st.MaxIn {
			st.MaxIn = indeg[u]
		}
		if indeg[u] == 0 {
			st.InDegreeZer++
			if g.OutDegree(NodeID(u)) == 0 {
				st.Isolated++
			}
		}
	}
	if g.n > 0 {
		st.MeanOut = float64(st.Edges) / float64(g.n)
	}
	return st
}
