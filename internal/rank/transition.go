package rank

import (
	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
)

// TransitionT builds the transpose Mᵀ of the uniform out-degree
// transition matrix of g directly from the forward graph: row v of Mᵀ
// holds (u, 1/o(p_u)) for every forward edge (u, v), predecessors in
// ascending order. The result is bitwise identical to
// transition(g).TransposeParallel — the operand PageRank's power
// iteration actually multiplies by — without materializing the forward
// matrix or sorting entries.
//
// PageRank and TrustRank call it per solve. The two differ only in
// teleport vector (TrustTeleport), so a caller that runs both over one
// graph — the snapshot builder, once per build that re-solves them —
// builds it once and feeds both walks to one SolveSplit.
func TransitionT(g *graph.Graph) *linalg.CSR {
	n := g.NumNodes()
	indeg := make([]int64, n)
	nnz := int64(0)
	for u := 0; u < n; u++ {
		for _, v := range g.Successors(int32(u)) {
			indeg[v]++
			nnz++
		}
	}
	mt := &linalg.CSR{
		Rows: n, ColsN: n,
		RowPtr: make([]int64, n+1),
		Cols:   make([]int32, nnz),
		Vals:   make([]float64, nnz),
	}
	for v := 0; v < n; v++ {
		mt.RowPtr[v+1] = mt.RowPtr[v] + indeg[v]
	}
	next := make([]int64, n)
	copy(next, mt.RowPtr[:n])
	for u := 0; u < n; u++ {
		succ := g.Successors(int32(u))
		if len(succ) == 0 {
			continue
		}
		w := 1 / float64(len(succ))
		for _, v := range succ {
			mt.Cols[next[v]] = int32(u)
			mt.Vals[next[v]] = w
			next[v]++
		}
	}
	return mt
}
