package rank

import (
	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
)

// HITSResult holds the hub and authority vectors of Kleinberg's HITS
// algorithm (the paper's [24]), both L2-normalized.
type HITSResult struct {
	Hubs        linalg.Vector
	Authorities linalg.Vector
	Stats       linalg.IterStats
}

// HITS runs the mutual-reinforcement iteration a = Aᵀh, h = Aa with L2
// normalization after each step, where A is the (0/1) adjacency matrix.
// Convergence is measured by the L2 distance of successive authority
// vectors.
func HITS(g *graph.Graph, opt Options) (*HITSResult, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	entries := make([]linalg.Entry, 0, g.NumEdges())
	for u := 0; u < n; u++ {
		for _, v := range g.Successors(int32(u)) {
			entries = append(entries, linalg.Entry{Row: u, Col: int(v), Val: 1})
		}
	}
	a, err := linalg.NewCSR(n, n, entries)
	if err != nil {
		return nil, err
	}
	at := a.Transpose()

	tol := opt.tol()
	auth := linalg.NewVector(n)
	auth.Fill(1)
	normalize2(auth)
	hubs := linalg.NewVector(n)
	prev := auth.Clone()

	res := &HITSResult{}
	for res.Stats.Iterations = 1; res.Stats.Iterations <= maxIter; res.Stats.Iterations++ {
		// h = A·a ; a' = Aᵀ·h
		linalg.MulVecParallel(a, auth, hubs, opt.Workers)
		normalize2(hubs)
		linalg.MulVecParallel(at, hubs, auth, opt.Workers)
		normalize2(auth)
		res.Stats.Residual = linalg.L2Distance(auth, prev)
		copy(prev, auth)
		if res.Stats.Residual < tol {
			res.Stats.Converged = true
			break
		}
	}
	if res.Stats.Iterations > maxIter {
		res.Stats.Iterations = maxIter
	}
	res.Hubs = hubs
	res.Authorities = auth
	return res, nil
}

func normalize2(v linalg.Vector) {
	n := v.Norm2()
	if n > 0 {
		v.Scale(1 / n)
	}
}
