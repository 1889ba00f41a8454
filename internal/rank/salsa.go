package rank

import (
	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
)

// SALSAResult holds the hub and authority scores of the SALSA algorithm
// (Lempel & Moran's stochastic variant of HITS), both L1-normalized over
// their support.
type SALSAResult struct {
	Hubs        linalg.Vector
	Authorities linalg.Vector
	Stats       linalg.IterStats
}

// SALSA computes Stochastic Approach for Link-Structure Analysis scores:
// a random walk alternating one step backward and one step forward along
// links. Authorities are the stationary distribution of the chain
// A = W_cᵀ·W_r (row-normalized forward then column-normalized backward
// steps); hubs are the mirror chain. Unlike HITS, scores depend on local
// degree structure rather than the global principal eigenvector, which
// makes SALSA far less vulnerable to tightly-knit-community effects —
// a property worth comparing against SRSR's throttling.
func SALSA(g *graph.Graph, opt Options) (*SALSAResult, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	// W_r: row (out-degree) normalized adjacency. W_c: column (in-degree)
	// normalized adjacency.
	indeg := make([]int, n)
	for u := 0; u < n; u++ {
		for _, v := range g.Successors(int32(u)) {
			indeg[v]++
		}
	}
	var rowEntries, colEntries []linalg.Entry
	for u := 0; u < n; u++ {
		succ := g.Successors(int32(u))
		if len(succ) == 0 {
			continue
		}
		w := 1 / float64(len(succ))
		for _, v := range succ {
			rowEntries = append(rowEntries, linalg.Entry{Row: u, Col: int(v), Val: w})
			colEntries = append(colEntries, linalg.Entry{Row: u, Col: int(v), Val: 1 / float64(indeg[v])})
		}
	}
	wr, err := linalg.NewCSR(n, n, rowEntries)
	if err != nil {
		return nil, err
	}
	wc, err := linalg.NewCSR(n, n, colEntries)
	if err != nil {
		return nil, err
	}
	wrT := wr.Transpose()

	tol := opt.tol()

	// Authority chain step: a' = W_cᵀ(W_rᵀ... careful with orientation:
	// authority walk: from authority v, go backward to a hub u (pick
	// in-link uniformly: W_c-normalized), then forward to authority v'
	// (pick out-link uniformly: W_r). In matrix form over row vectors:
	// a' = a · (W_cᵀ W_r) ... with column vectors: a' = (W_cᵀW_r)ᵀ a =
	// W_rᵀ·W_c·a.
	auth := linalg.NewUniformVector(n)
	tmp := linalg.NewVector(n)
	res := &SALSAResult{}
	authNext := linalg.NewVector(n)
	for res.Stats.Iterations = 1; res.Stats.Iterations <= maxIter; res.Stats.Iterations++ {
		// tmp = W_c · a (backward step mass to hubs)
		linalg.MulVecParallel(wc, auth, tmp, opt.Workers)
		// a' = W_rᵀ · tmp (forward step back to authorities)
		linalg.MulVecParallel(wrT, tmp, authNext, opt.Workers)
		authNext.Normalize1()
		res.Stats.Residual = linalg.L2Distance(authNext, auth)
		auth, authNext = authNext, auth
		if res.Stats.Residual < tol {
			res.Stats.Converged = true
			break
		}
	}
	if res.Stats.Iterations > maxIter {
		res.Stats.Iterations = maxIter
	}
	// Hub chain: from hub u step forward to an authority (W_r), then
	// backward to a hub (W_c): P_h = W_r·W_cᵀ, so the stationary column
	// vector satisfies h = P_hᵀ·h = W_c·W_rᵀ·h.
	hubs := linalg.NewUniformVector(n)
	hubNext := linalg.NewVector(n)
	for i := 0; i < maxIter; i++ {
		linalg.MulVecParallel(wrT, hubs, tmp, opt.Workers)
		linalg.MulVecParallel(wc, tmp, hubNext, opt.Workers)
		hubNext.Normalize1()
		d := linalg.L2Distance(hubNext, hubs)
		hubs, hubNext = hubNext, hubs
		if d < tol {
			break
		}
	}
	res.Authorities = auth
	res.Hubs = hubs
	return res, nil
}
