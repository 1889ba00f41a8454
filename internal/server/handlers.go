package server

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Endpoint names used for metrics labels.
const (
	epRank     = "rank"
	epTopK     = "topk"
	epCompare  = "compare"
	epSnapshot = "snapshot"
	epHealthz  = "healthz"
	epMetrics  = "metrics"
	epSync     = "sync"
)

var allEndpoints = []string{epRank, epTopK, epCompare, epSnapshot, epHealthz, epMetrics, epSync}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, apiError{Error: msg})
}

// statusRecorder captures the response code for metrics. Recorders are
// pooled: the serving hot path must not allocate per request.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

var recorderPool = sync.Pool{New: func() any { return new(statusRecorder) }}

// instrument wraps a handler with latency/status accounting and the
// per-request timeout. When capped, requests beyond cfg.MaxInFlight
// concurrent on this endpoint are shed with 503 + Retry-After instead
// of queueing behind a saturated handler. With no timeout configured
// the wrapper is allocation-free (the recorder comes from a pool and
// the request is not cloned).
func (s *Server) instrument(endpoint string, capped bool, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if capped && s.cfg.MaxInFlight > 0 {
			ctr := s.inflight[endpoint]
			if ctr.Add(1) > int64(s.cfg.MaxInFlight) {
				ctr.Add(-1)
				w.Header().Set("Retry-After", retryAfterValue(nil))
				writeError(w, http.StatusServiceUnavailable, "over capacity, retry shortly")
				s.metrics.ObserveShed(endpoint)
				s.metrics.Observe(endpoint, http.StatusServiceUnavailable, time.Since(start))
				return
			}
			defer ctr.Add(-1)
		}
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		rec := recorderPool.Get().(*statusRecorder)
		rec.ResponseWriter, rec.code = w, http.StatusOK
		h(rec, r)
		code := rec.code
		rec.ResponseWriter = nil
		recorderPool.Put(rec)
		s.metrics.Observe(endpoint, code, time.Since(start))
	})
}

// retryAfterValues spreads 503 retries over a small window: a herd of
// replicas (or shed clients) that all hit a restarting builder in the
// same instant must not all come back in the same instant. rnd is only
// pinned by tests; nil uses math/rand.
var retryAfterValues = [...]string{"1", "2", "3"}

func retryAfterValue(rnd func() float64) string {
	f := rand.Float64
	if rnd != nil {
		f = rnd
	}
	i := int(f() * float64(len(retryAfterValues)))
	if i >= len(retryAfterValues) {
		i = len(retryAfterValues) - 1
	}
	return retryAfterValues[i]
}

// staleness reports the serving snapshot's age and whether it exceeds
// the staleness budget. Always fresh when no budget is configured or
// nothing is published yet. On a replica the age is the sync-contact
// age, not the local publish age: a builder that publishes rarely keeps
// its replicas fresh with 304s, while an unreachable builder makes them
// stale even though nothing was locally republished.
func (s *Server) staleness() (time.Duration, bool) {
	if s.cfg.StalenessBudget <= 0 {
		return 0, false
	}
	var age time.Duration
	if s.cfg.Replica != nil {
		age = s.cfg.Replica.SyncAge()
	} else {
		age = s.store.Staleness()
	}
	return age, age > s.cfg.StalenessBudget
}

// snapshotOr503 fetches the served snapshot, answering 503 when the
// store is still empty (startup before the first publish). A snapshot
// past the staleness budget is still served — ranking queries prefer
// stale answers over no answers — but flagged with X-Snapshot-Stale.
func (s *Server) snapshotOr503(w http.ResponseWriter) (*Snapshot, bool) {
	snap := s.store.Current()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, "no snapshot published yet")
		return nil, false
	}
	if age, stale := s.staleness(); stale {
		w.Header().Set("X-Snapshot-Stale", age.Round(time.Second).String())
	}
	return snap, true
}

// respCacheFor returns snap's pre-encoded response cache, or nil when
// the server takes the encoder fallback on every request.
func (s *Server) respCacheFor(snap *Snapshot) *respCache {
	if s.encodeAlways {
		return nil
	}
	return snap.resp
}

// queryValue returns the first value of key in the request's query
// string without allocating. Queries carrying escapes (%, +) or the
// legacy ';' separator fall back to the stdlib parser; the flag keys
// this server serves (algo, n, a, b) are never escaped by well-formed
// clients, so the fast path covers real traffic.
func queryValue(r *http.Request, key string) string {
	raw := r.URL.RawQuery
	if strings.IndexByte(raw, '%') >= 0 || strings.IndexByte(raw, '+') >= 0 || strings.IndexByte(raw, ';') >= 0 {
		return r.URL.Query().Get(key)
	}
	for raw != "" {
		var pair string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			pair, raw = raw[:i], raw[i+1:]
		} else {
			pair, raw = raw, ""
		}
		if k, v, _ := strings.Cut(pair, "="); k == key {
			return v
		}
	}
	return ""
}

// etagMatch reports whether an If-None-Match header value matches the
// given strong ETag, honoring * and comma-separated candidate lists
// (weak validators compare by opaque tag, which is fine for GET).
func etagMatch(inm, etag string) bool {
	for inm != "" {
		var cand string
		if i := strings.IndexByte(inm, ','); i >= 0 {
			cand, inm = inm[:i], inm[i+1:]
		} else {
			cand, inm = inm, ""
		}
		cand = strings.TrimSpace(cand)
		if cand == "*" {
			return true
		}
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}

// notModified sets the snapshot-version ETag on the response and
// reports whether the request should be answered 304 (in which case the
// status has already been written). Only cache-served responses carry
// an ETag; the 304 is correct for any deterministic body because the
// tag is keyed on the snapshot version.
func notModified(w http.ResponseWriter, r *http.Request, c *respCache) bool {
	w.Header()["Etag"] = c.etagHdr
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, c.etag) {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// algoParam resolves ?algo=, defaulting to srsr when served, otherwise
// the snapshot's first algorithm.
func algoParam(r *http.Request, snap *Snapshot) (Algo, error) {
	raw := queryValue(r, "algo")
	if raw == "" {
		if snap.Set(AlgoSRSR) != nil {
			return AlgoSRSR, nil
		}
		return snap.Algos()[0], nil
	}
	algo := Algo(raw)
	if snap.Set(algo) == nil {
		return "", errors.New("unknown algorithm " + strconv.Quote(raw))
	}
	return algo, nil
}

// rankResponse is the /v1/rank/{source} payload.
type rankResponse struct {
	Version uint64 `json:"version"`
	Algo    Algo   `json:"algo"`
	Entry
	Sources int `json:"sources"`
	Pages   int `json:"pages,omitempty"`
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshotOr503(w)
	if !ok {
		return
	}
	algo, err := algoParam(r, snap)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ident := r.PathValue("source")
	id, ok := snap.Resolve(ident)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown source "+strconv.Quote(ident))
		return
	}
	if c := s.respCacheFor(snap); c != nil {
		if rc := c.rank[algo]; rc != nil && int(id) < rc.numSources() {
			if notModified(w, r, c) {
				return
			}
			w.Header()["Content-Type"] = jsonContentType
			w.WriteHeader(http.StatusOK)
			rc.writeTo(w, id)
			return
		}
	}
	entry, err := snap.Entry(algo, id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := rankResponse{Version: snap.Version(), Algo: algo, Entry: entry, Sources: snap.NumSources()}
	if pc := snap.pageCount; int(id) < len(pc) {
		resp.Pages = pc[id]
	}
	writeJSON(w, http.StatusOK, resp)
}

// topKResponse is the /v1/topk payload.
type topKResponse struct {
	Version uint64  `json:"version"`
	Algo    Algo    `json:"algo"`
	N       int     `json:"n"`
	Results []Entry `json:"results"`
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshotOr503(w)
	if !ok {
		return
	}
	algo, err := algoParam(r, snap)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	n := 10
	if raw := queryValue(r, "n"); raw != "" {
		n, err = strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "n must be a non-negative integer")
			return
		}
	}
	if n > maxTopK {
		// The payload reports the effective n; the header lets load
		// tests and clients distinguish a clamped response from a
		// corpus that simply has fewer sources.
		n = maxTopK
		w.Header().Set("X-TopK-Clamped", "true")
	}
	if c := s.respCacheFor(snap); c != nil {
		if tc := c.topk[algo]; tc != nil {
			if n > tc.max() {
				n = tc.max()
			}
			if notModified(w, r, c) {
				return
			}
			w.Header()["Content-Type"] = jsonContentType
			w.WriteHeader(http.StatusOK)
			tc.writeTo(w, n, c.digits)
			return
		}
	}
	results, err := snap.TopK(algo, n)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, topKResponse{
		Version: snap.Version(), Algo: algo, N: len(results), Results: results,
	})
}

// compareResponse is the /v1/compare payload.
type compareResponse struct {
	Version uint64 `json:"version"`
	Algo    Algo   `json:"algo"`
	Comparison
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshotOr503(w)
	if !ok {
		return
	}
	algo, err := algoParam(r, snap)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rawA, rawB := queryValue(r, "a"), queryValue(r, "b")
	if rawA == "" || rawB == "" {
		writeError(w, http.StatusBadRequest, "compare needs both a= and b=")
		return
	}
	a, okA := snap.Resolve(rawA)
	if !okA {
		writeError(w, http.StatusNotFound, "unknown source "+strconv.Quote(rawA))
		return
	}
	b, okB := snap.Resolve(rawB)
	if !okB {
		writeError(w, http.StatusNotFound, "unknown source "+strconv.Quote(rawB))
		return
	}
	cmp, err := snap.Compare(algo, a, b)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, compareResponse{Version: snap.Version(), Algo: algo, Comparison: cmp})
}

// snapshotResponse is the /v1/snapshot metadata payload.
type snapshotResponse struct {
	Version uint64 `json:"version"`
	// Parent records delta lineage: the version served when this
	// snapshot was published. Omitted on the first publish.
	Parent    uint64     `json:"parent_version,omitempty"`
	BuiltAt   time.Time  `json:"built_at"`
	Corpus    CorpusInfo `json:"corpus"`
	Algos     []Algo     `json:"algos"`
	KappaTopK int        `json:"kappa_topk"`
	Publishes uint64     `json:"publishes"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshotOr503(w)
	if !ok {
		return
	}
	if c := s.respCacheFor(snap); c != nil && c.meta != nil {
		if notModified(w, r, c) {
			return
		}
		w.Header()["Content-Type"] = jsonContentType
		w.WriteHeader(http.StatusOK)
		w.Write(c.meta)
		return
	}
	writeJSON(w, http.StatusOK, snapshotResponse{
		Version:   snap.Version(),
		Parent:    snap.ParentVersion(),
		BuiltAt:   snap.BuiltAt(),
		Corpus:    snap.Corpus(),
		Algos:     snap.Algos(),
		KappaTopK: snap.KappaTopK(),
		Publishes: s.store.Publishes(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Current()
	status := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	}
	if snap == nil {
		status["status"] = "starting"
		writeJSON(w, http.StatusServiceUnavailable, status)
		return
	}
	status["snapshot_version"] = snap.Version()
	if s.cfg.Replica != nil {
		status["replica"] = s.cfg.Replica.Healthz()
	}
	if age, stale := s.staleness(); stale {
		// Degraded: data endpoints still answer (from the stale
		// snapshot), but the refresh pipeline — or on a replica, the
		// sync loop — is not keeping up and orchestration should know.
		status["status"] = "degraded"
		status["stale_seconds"] = age.Seconds()
		status["staleness_budget_seconds"] = s.cfg.StalenessBudget.Seconds()
		writeJSON(w, http.StatusServiceUnavailable, status)
		return
	}
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Current()
	var version uint64
	sources := 0
	if snap != nil {
		version = snap.Version()
		sources = snap.NumSources()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteText(w, version, s.store.Publishes(), sources, s.store.Staleness().Seconds())
	s.metrics.WriteSolverText(w, snap)
	s.metrics.WritePublishText(w, s.store)
	s.metrics.WriteRefreshText(w, s.cfg.Refresher)
	s.metrics.WriteCorpusLoadText(w, s.cfg.CorpusLoad)
	if s.cfg.Replica != nil {
		s.cfg.Replica.WriteMetricsText(w)
	}
	if m, ok := s.cfg.SyncHandler.(metricsTexter); ok {
		m.WriteMetricsText(w)
	}
}

// routes wires the instrumented mux.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /v1/rank/{source}", s.instrument(epRank, true, s.handleRank))
	mux.Handle("GET /v1/topk", s.instrument(epTopK, true, s.handleTopK))
	mux.Handle("GET /v1/compare", s.instrument(epCompare, true, s.handleCompare))
	mux.Handle("GET /v1/snapshot", s.instrument(epSnapshot, true, s.handleSnapshot))
	// Health and metrics stay uncapped: they are exactly what operators
	// need when the data path is saturated.
	mux.Handle("GET /healthz", s.instrument(epHealthz, false, s.handleHealthz))
	mux.Handle("GET /metrics", s.instrument(epMetrics, false, s.handleMetrics))
	if s.cfg.SyncHandler != nil {
		// The replica sync endpoint is control-plane traffic: rare,
		// large responses, never shed.
		mux.Handle("GET /v1/replica/snapshot", s.instrument(epSync, false, s.cfg.SyncHandler.ServeHTTP))
	}
	return mux
}
