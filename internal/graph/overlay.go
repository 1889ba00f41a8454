package graph

import (
	"fmt"
	"slices"
)

// Topology is the read-only view of a directed graph shared by the
// immutable Graph and the mutable Overlay. The solvers and the
// spam-proximity walk only ever iterate nodes and successor lists, so
// they accept either representation; a patched Overlay yields exactly
// the successor lists its compacted Graph would, which is what keeps the
// streaming pipeline's operators bitwise identical to a cold rebuild.
type Topology interface {
	NumNodes() int
	NumEdges() int64
	// Successors returns node u's sorted, duplicate-free successor list.
	// The slice aliases internal storage and must not be modified.
	Successors(u NodeID) []NodeID
}

var (
	_ Topology = (*Graph)(nil)
	_ Topology = (*Overlay)(nil)
)

// Overlay is a mutable row-replacement layer over an immutable CSR
// graph: whole successor rows are swapped out (dirty-row semantics — an
// incremental aggregator re-derives a full row and installs it), new
// nodes are appended, and everything else reads through to the base.
// Compact folds the patches into a fresh CSR when the patch set has
// grown past the point where map lookups and patch memory are worth
// carrying.
//
// Overlay is not safe for concurrent mutation; the streaming pipeline
// serializes writers and hands read-only views to solvers between
// batches.
type Overlay struct {
	base  *Graph
	rows  map[NodeID][]NodeID // replaced successor rows, sorted + deduped
	n     int                 // >= base.n when nodes were appended
	edges int64
}

// NewOverlay returns an overlay with no patches over base.
func NewOverlay(base *Graph) *Overlay {
	return &Overlay{
		base:  base,
		rows:  make(map[NodeID][]NodeID),
		n:     base.NumNodes(),
		edges: base.NumEdges(),
	}
}

// NumNodes returns the node count including appended nodes.
func (o *Overlay) NumNodes() int { return o.n }

// NumEdges returns the edge count reflecting every patched row.
func (o *Overlay) NumEdges() int64 { return o.edges }

// PatchedRows reports how many rows currently diverge from the base.
func (o *Overlay) PatchedRows() int { return len(o.rows) }

// AddNodes appends k nodes with empty successor rows and returns the ID
// of the first one. Appended rows read as empty until SetRow patches
// them.
func (o *Overlay) AddNodes(k int) NodeID {
	first := NodeID(o.n)
	o.n += k
	return first
}

// Successors returns node u's successor list: the patched row if one is
// installed, the base row for original nodes, and an empty row for
// appended nodes.
func (o *Overlay) Successors(u NodeID) []NodeID {
	if row, ok := o.rows[u]; ok {
		return row
	}
	if int(u) < o.base.NumNodes() {
		return o.base.Successors(u)
	}
	return nil
}

// SetRow replaces node u's successor list. succ must be strictly
// increasing (sorted, duplicate-free) with every target in range — the
// same invariant CSR rows carry — and is copied. Installing a row equal
// to the base row removes the patch instead of shadowing it.
func (o *Overlay) SetRow(u NodeID, succ []NodeID) error {
	if u < 0 || int(u) >= o.n {
		return fmt.Errorf("%w: SetRow(%d) with %d nodes", ErrCorrupt, u, o.n)
	}
	for i, v := range succ {
		if v < 0 || int(v) >= o.n {
			return fmt.Errorf("%w: successor %d out of range [0,%d)", ErrCorrupt, v, o.n)
		}
		if i > 0 && succ[i-1] >= v {
			return fmt.Errorf("%w: successors of %d not strictly increasing", ErrCorrupt, u)
		}
	}
	o.edges += int64(len(succ)) - int64(len(o.Successors(u)))
	if int(u) < o.base.NumNodes() && slices.Equal(succ, o.base.Successors(u)) {
		delete(o.rows, u)
		return nil
	}
	o.rows[u] = slices.Clone(succ)
	return nil
}

// Compact materializes the overlay as a fresh immutable Graph and
// resets the overlay onto it (no patches, same topology). Rows are
// already sorted, so assembly is two linear passes with no edge sort.
func (o *Overlay) Compact() *Graph {
	g := &Graph{
		n:      o.n,
		rowPtr: make([]int64, o.n+1),
		succ:   make([]NodeID, 0, o.edges),
	}
	for u := 0; u < o.n; u++ {
		row := o.Successors(NodeID(u))
		g.succ = append(g.succ, row...)
		g.rowPtr[u+1] = int64(len(g.succ))
	}
	o.base = g
	o.rows = make(map[NodeID][]NodeID)
	return g
}
