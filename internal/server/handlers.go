package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
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

// writeJSON encodes v (two-space indent, trailing newline) before it
// sends anything, into the route's pooled recorder buffer when there is
// one, so a value the encoder refuses is answered 500 with the error
// envelope rather than 200 with no body. Errors and /healthz use it; data
// responses are written from the snapshot's rendered text.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := bytes.NewBuffer(recorderOf(w).buf[:0])
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		code = http.StatusInternalServerError
		_ = enc.Encode(apiError{Error: "encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, apiError{Error: msg})
}

// statusRecorder captures the response code for metrics, and lends the
// handler a scratch buffer to assemble a body in (handleRank,
// handleCompare). Recorders
// are pooled: the serving hot path must not allocate per request.
type statusRecorder struct {
	http.ResponseWriter
	code int
	buf  []byte
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// A recorder's buffer starts at a size that holds a /v1/rank document
// with a label of a few hundred bytes, so a new recorder allocates once
// for it rather than on each of the appends that fill it.
var recorderPool = sync.Pool{New: func() any { return &statusRecorder{buf: make([]byte, 0, 512)} }}

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

// startBody sets the snapshot-version ETag on a data response, then
// either answers 304, when If-None-Match matches the tag, or writes the
// status and headers of a 200 JSON body; it reports whether the caller is
// to write that body. The 304 is correct for any deterministic body
// because the tag is keyed on the snapshot version.
func startBody(w http.ResponseWriter, r *http.Request, c *respCache) bool {
	w.Header()["Etag"] = c.etagHdr
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, c.etag) {
		w.WriteHeader(http.StatusNotModified)
		return false
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	return true
}

// dataRequest resolves what every data endpoint starts from: the served
// snapshot (see snapshotOr503) and ?algo=, which defaults to srsr when
// served and otherwise to the snapshot's first algorithm. When either
// fails it answers the error and reports false.
func (s *Server) dataRequest(w http.ResponseWriter, r *http.Request) (*Snapshot, Algo, bool) {
	snap, ok := s.snapshotOr503(w)
	if !ok {
		return nil, "", false
	}
	switch algo := Algo(queryValue(r, "algo")); {
	case algo == "" && snap.Set(AlgoSRSR) != nil:
		return snap, AlgoSRSR, true
	case algo == "":
		return snap, snap.Algos()[0], true
	case snap.Set(algo) == nil:
		writeError(w, http.StatusBadRequest, "unknown algorithm "+strconv.Quote(string(algo)))
		return nil, "", false
	default:
		return snap, algo, true
	}
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	snap, algo, ok := s.dataRequest(w, r)
	if !ok {
		return
	}
	ident := r.PathValue("source")
	id, ok := snap.Resolve(ident)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown source "+strconv.Quote(ident))
		return
	}
	if c := snap.resp; startBody(w, r, c) {
		c.writeRank(w, c.rank[algo], id, snap.pageCount)
	}
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	snap, algo, ok := s.dataRequest(w, r)
	if !ok {
		return
	}
	n := 10
	if raw := queryValue(r, "n"); raw != "" {
		var err error
		if n, err = strconv.Atoi(raw); err != nil || n < 0 {
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
	if c := snap.resp; startBody(w, r, c) {
		tc := c.topk[algo]
		tc.writeTo(w, min(n, tc.max()), c.digits)
	}
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	snap, algo, ok := s.dataRequest(w, r)
	if !ok {
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
	scores := snap.sets[algo].scores
	ratio := scoreRatio(scores[a], scores[b])
	if math.IsInf(ratio, 0) {
		// Finite scores leave an overflow to ±Inf as the one way to a
		// ratio JSON has no text for: answered as encoding/json fails on
		// it, with its words.
		writeError(w, http.StatusInternalServerError, "encoding response: json: unsupported value: "+strconv.FormatFloat(ratio, 'g', -1, 64))
		return
	}
	if c := snap.resp; startBody(w, r, c) {
		c.writeCompare(w, c.rank[algo], a, b, ratio)
	}
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
	if c := snap.resp; startBody(w, r, c) {
		w.Write(c.meta)
	}
}

// snapshotDocument is the /v1/snapshot payload once publishes publishes
// have been made.
func (s *Snapshot) snapshotDocument(publishes uint64) snapshotResponse {
	return snapshotResponse{Version: s.version, Parent: s.parent, BuiltAt: s.builtAt, Corpus: s.corpus,
		Algos: s.Algos(), KappaTopK: s.kappaTopK, Publishes: publishes}
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
	s.metrics.WriteBuildText(w, s.cfg.Builder)
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
