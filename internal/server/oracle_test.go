package server

import (
	"net/http"
	"strconv"
)

// This file is the reference the rendered responses are held to: each
// data endpoint's response struct, encoded per request by encoding/json
// through writeJSON, the way the server answered before it rendered its
// bodies at publish time. The golden tests and FuzzRenderedBodies compare
// every rendered body with the oracle's, byte for byte, and the Oracle
// benchmarks time it against the rendered path.

// Entry is one source's standing under one algorithm.
type Entry struct {
	Source int32   `json:"source"`
	Label  string  `json:"label"`
	Score  float64 `json:"score"`
	Rank   int     `json:"rank"` // 1-based: the highest-scoring source has Rank 1
}

// Entry returns source id's standing under algo.
func (s *Snapshot) Entry(algo Algo, id int32) Entry {
	_, rank := s.sets[algo].index()
	return Entry{Source: id, Label: s.labels[id], Score: s.sets[algo].scores[id], Rank: int(rank[id]) + 1}
}

// TopK returns the n highest-ranked entries under algo, fewer if the
// corpus is smaller, none for a negative n.
func (s *Snapshot) TopK(algo Algo, n int) []Entry {
	order, _ := s.sets[algo].index()
	out := make([]Entry, 0, min(max(n, 0), len(order)))
	for _, id := range order[:cap(out)] {
		out = append(out, s.Entry(algo, id))
	}
	return out
}

// rankResponse is the /v1/rank/{source} payload.
type rankResponse struct {
	Version uint64 `json:"version"`
	Algo    Algo   `json:"algo"`
	Entry
	Sources int `json:"sources"`
	Pages   int `json:"pages,omitempty"`
}

// topKResponse is the /v1/topk payload.
type topKResponse struct {
	Version uint64  `json:"version"`
	Algo    Algo    `json:"algo"`
	N       int     `json:"n"`
	Results []Entry `json:"results"`
}

// compareResponse is the /v1/compare payload.
type compareResponse struct {
	Version    uint64  `json:"version"`
	Algo       Algo    `json:"algo"`
	A          Entry   `json:"a"`
	B          Entry   `json:"b"`
	ScoreRatio float64 `json:"score_ratio"` // A.Score / B.Score; 0 if B.Score == 0
	RankDelta  int     `json:"rank_delta"`  // B.Rank - A.Rank; positive means A ranks higher
}

// oracle serves the four data endpoints by encoding their response
// structs per request. It answers well-formed requests only: the tests
// send it nothing else.
type oracle struct{ *Server }

func newOracle(store *Store) *oracle { return &oracle{New(store, Config{})} }

// Handler routes the data endpoints as Server.Handler does.
func (o *oracle) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /v1/rank/{source}", o.instrument(epRank, true, o.rank))
	mux.Handle("GET /v1/topk", o.instrument(epTopK, true, o.topk))
	mux.Handle("GET /v1/compare", o.instrument(epCompare, true, o.compare))
	mux.Handle("GET /v1/snapshot", o.instrument(epSnapshot, true, o.snapshot))
	return mux
}

func (o *oracle) rank(w http.ResponseWriter, r *http.Request) {
	snap, algo, _ := o.dataRequest(w, r)
	id, _ := snap.Resolve(r.PathValue("source"))
	resp := rankResponse{Version: snap.version, Algo: algo, Entry: snap.Entry(algo, id), Sources: snap.NumSources()}
	resp.Pages = snap.pageCount[id]
	writeJSON(w, http.StatusOK, resp)
}

func (o *oracle) topk(w http.ResponseWriter, r *http.Request) {
	snap, algo, _ := o.dataRequest(w, r)
	n := 10
	if raw := queryValue(r, "n"); raw != "" {
		n, _ = strconv.Atoi(raw)
	}
	if n > maxTopK {
		n = maxTopK
		w.Header().Set("X-TopK-Clamped", "true")
	}
	results := snap.TopK(algo, n)
	writeJSON(w, http.StatusOK, topKResponse{Version: snap.version, Algo: algo, N: len(results), Results: results})
}

func (o *oracle) compare(w http.ResponseWriter, r *http.Request) {
	snap, algo, _ := o.dataRequest(w, r)
	a, _ := snap.Resolve(queryValue(r, "a"))
	b, _ := snap.Resolve(queryValue(r, "b"))
	ea, eb := snap.Entry(algo, a), snap.Entry(algo, b)
	writeJSON(w, http.StatusOK, compareResponse{Version: snap.version, Algo: algo, A: ea, B: eb,
		ScoreRatio: scoreRatio(ea.Score, eb.Score), RankDelta: eb.Rank - ea.Rank})
}

func (o *oracle) snapshot(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, o.store.Current().snapshotDocument(o.store.Publishes()))
}
