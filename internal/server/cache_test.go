package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
)

// twoServers returns the server and the encoding/json oracle over the
// same store, for byte-identity comparisons.
func twoServers(store *Store) (rendered *Server, oracle *oracle) {
	return New(store, Config{}), newOracle(store)
}

func rawGet(t *testing.T, h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// nastySnapshot builds a snapshot whose labels are chosen to stress the
// JSON escaper and the cache's byte-scanning offset recovery: quotes,
// HTML-escaped runes, backslashes, and strings that contain the very
// markers the builder scans for.
func nastySnapshot(t *testing.T) *Snapshot {
	t.Helper()
	labels := []string{
		`plain`,
		`quo"te`,
		`x","source": 9,"y`,
		`<script>&amp;</script>`,
		`back\slash`,
		`ünïcödé-ラベル`,
		`  "n": 3,`,
		`trailing }`,
	}
	scores := linalg.Vector{0.25, 0, 1e-300, 0.125, 0.125, 0.25, 0.125, 0.125}
	pages := make([]int, len(labels))
	for i := range pages {
		pages[i] = i // source 0 has zero pages: exercises omitempty
	}
	sets := map[Algo]*ScoreSet{
		AlgoSRSR:     NewScoreSet(scores, linalg.IterStats{Converged: true}),
		"weird.algo": NewScoreSet(append(linalg.Vector(nil), scores...), linalg.IterStats{}),
	}
	snap, err := NewSnapshot(CorpusInfo{Name: `nasty "corpus" <&>`}, labels, pages, 2, sets, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestCachedResponsesByteIdentical is the golden test for the response
// cache: for every algorithm and a sweep of n (plus every source on the
// rank endpoint, and the snapshot metadata endpoint), the rendered bytes
// must equal the encoding/json oracle's exactly.
func TestCachedResponsesByteIdentical(t *testing.T) {
	snaps := map[string]*Snapshot{"nasty": nastySnapshot(t)}
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	preset, err := BuildSnapshot(ds.Pages, ds.SpamSources, BuildConfig{Name: ds.Name})
	if err != nil {
		t.Fatal(err)
	}
	snaps["preset"] = preset

	for name, snap := range snaps {
		t.Run(name, func(t *testing.T) {
			store := NewStore(snap)
			rendered, ref := twoServers(store)
			hc, hf := rendered.Handler(), ref.Handler()
			if snap.resp == nil {
				t.Fatal("published snapshot has no response cache")
			}

			total := snap.NumSources()
			for _, algo := range snap.Algos() {
				if snap.resp.topk[algo] == nil {
					t.Fatalf("no topk cache for %s", algo)
				}
				if snap.resp.rank[algo] == nil {
					t.Fatalf("no rank cache for %s", algo)
				}
				for _, n := range []int{0, 1, 10, total, total + 1} {
					path := fmt.Sprintf("/v1/topk?algo=%s&n=%d", algo, n)
					a, b := rawGet(t, hc, path, nil), rawGet(t, hf, path, nil)
					if a.Code != http.StatusOK || b.Code != http.StatusOK {
						t.Fatalf("%s: status %d vs %d", path, a.Code, b.Code)
					}
					if a.Body.String() != b.Body.String() {
						t.Fatalf("%s: rendered body differs from the oracle\nrendered:\n%s\noracle:\n%s",
							path, a.Body.String(), b.Body.String())
					}
					if ct := a.Header().Get("Content-Type"); ct != "application/json" {
						t.Fatalf("%s: cached Content-Type %q", path, ct)
					}
				}
				for id := 0; id < total; id++ {
					path := fmt.Sprintf("/v1/rank/%d?algo=%s", id, algo)
					a, b := rawGet(t, hc, path, nil), rawGet(t, hf, path, nil)
					if a.Code != http.StatusOK || b.Code != http.StatusOK {
						t.Fatalf("%s: status %d vs %d", path, a.Code, b.Code)
					}
					if a.Body.String() != b.Body.String() {
						t.Fatalf("%s: rendered body differs from the oracle\nrendered:\n%s\noracle:\n%s",
							path, a.Body.String(), b.Body.String())
					}
				}
			}
			// Default-algo path (no ?algo=) must hit the cache too.
			a, b := rawGet(t, hc, "/v1/topk", nil), rawGet(t, hf, "/v1/topk", nil)
			if a.Body.String() != b.Body.String() {
				t.Fatal("default-algo topk differs")
			}
			// Snapshot metadata.
			a, b = rawGet(t, hc, "/v1/snapshot", nil), rawGet(t, hf, "/v1/snapshot", nil)
			if a.Body.String() != b.Body.String() {
				t.Fatalf("snapshot meta differs\nrendered:\n%s\noracle:\n%s", a.Body.String(), b.Body.String())
			}
		})
	}
}

// TestCachedResponsesAcrossPublishes re-publishes and checks the cache
// tracks the new version (and stays byte-identical to the oracle).
func TestCachedResponsesAcrossPublishes(t *testing.T) {
	store := NewStore(nastySnapshot(t))
	rendered, ref := twoServers(store)
	store.Publish(nastySnapshot(t))
	a := rawGet(t, rendered.Handler(), "/v1/topk?n=3", nil)
	b := rawGet(t, ref.Handler(), "/v1/topk?n=3", nil)
	if a.Body.String() != b.Body.String() {
		t.Fatalf("post-republish body differs:\n%s\nvs\n%s", a.Body.String(), b.Body.String())
	}
	if !strings.Contains(a.Body.String(), `"version": 2`) {
		t.Fatalf("body does not reflect republished version:\n%s", a.Body.String())
	}
	if et := a.Header().Get("ETag"); et != `"v2"` {
		t.Fatalf("ETag %q after republish", et)
	}
}

func TestETagConditionalRequests(t *testing.T) {
	store := NewStore(nastySnapshot(t))
	srv := New(store, Config{})
	h := srv.Handler()

	for _, path := range []string{"/v1/topk?n=3", "/v1/rank/1", "/v1/snapshot"} {
		first := rawGet(t, h, path, nil)
		if first.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, first.Code)
		}
		etag := first.Header().Get("ETag")
		if etag != `"v1"` {
			t.Fatalf("%s: ETag %q, want \"v1\"", path, etag)
		}
		// Matching If-None-Match: 304, empty body, ETag still present.
		cond := rawGet(t, h, path, map[string]string{"If-None-Match": etag})
		if cond.Code != http.StatusNotModified {
			t.Fatalf("%s: conditional status %d, want 304", path, cond.Code)
		}
		if cond.Body.Len() != 0 {
			t.Fatalf("%s: 304 carried a body: %q", path, cond.Body.String())
		}
		if cond.Header().Get("ETag") != etag {
			t.Fatalf("%s: 304 lost the ETag", path)
		}
		// List and wildcard forms match; weak validators compare by tag.
		for _, inm := range []string{`"v0", ` + etag, "*", "W/" + etag} {
			if c := rawGet(t, h, path, map[string]string{"If-None-Match": inm}); c.Code != http.StatusNotModified {
				t.Fatalf("%s: If-None-Match %q gave %d, want 304", path, inm, c.Code)
			}
		}
		// A stale validator gets a full response.
		if c := rawGet(t, h, path, map[string]string{"If-None-Match": `"v999"`}); c.Code != http.StatusOK || c.Body.Len() == 0 {
			t.Fatalf("%s: stale validator gave %d (len %d)", path, c.Code, c.Body.Len())
		}
	}

	// Publishing invalidates: the old tag no longer matches.
	store.Publish(nastySnapshot(t))
	if c := rawGet(t, h, "/v1/topk?n=3", map[string]string{"If-None-Match": `"v1"`}); c.Code != http.StatusOK {
		t.Fatalf("stale-version conditional gave %d, want 200", c.Code)
	}
	if c := rawGet(t, h, "/v1/topk?n=3", map[string]string{"If-None-Match": `"v2"`}); c.Code != http.StatusNotModified {
		t.Fatalf("fresh-version conditional gave %d, want 304", c.Code)
	}
}

// TestHandleTopKClamped asserts the maxTopK clamp is reported both in
// the payload's effective n and via the X-TopK-Clamped header, and that
// merely exceeding the corpus size does not count as clamping.
func TestHandleTopKClamped(t *testing.T) {
	store := NewStore(testSnapshot(t, AlgoSRSR, []float64{0.1, 0.5, 0.3, 0.08, 0.02}))
	rendered, oracle := twoServers(store)
	for name, h := range map[string]http.Handler{"rendered": rendered.Handler(), "oracle": oracle.Handler()} {
		rec, body := get(t, h, fmt.Sprintf("/v1/topk?n=%d", maxTopK+1))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", name, rec.Code)
		}
		if rec.Header().Get("X-TopK-Clamped") != "true" {
			t.Fatalf("%s: clamped response missing X-TopK-Clamped header", name)
		}
		if body["n"].(float64) != 5 {
			t.Fatalf("%s: effective n %v, want 5", name, body["n"])
		}

		// n beyond the corpus but within maxTopK: truncated, not clamped.
		rec, body = get(t, h, "/v1/topk?n=100")
		if rec.Header().Get("X-TopK-Clamped") != "" {
			t.Fatalf("%s: in-range n flagged as clamped", name)
		}
		if body["n"].(float64) != 5 {
			t.Fatalf("%s: effective n %v, want 5", name, body["n"])
		}
	}
}

func TestQueryValueFastPath(t *testing.T) {
	cases := []struct {
		raw, key, want string
	}{
		{"n=10&algo=srsr", "n", "10"},
		{"n=10&algo=srsr", "algo", "srsr"},
		{"n=10&algo=srsr", "b", ""},
		{"", "n", ""},
		{"n=", "n", ""},
		{"a=1&a=2", "a", "1"}, // first value, like url.Values.Get
		{"flag", "flag", ""},
		{"x=%32", "x", "2"},   // escaped: slow path decodes
		{"x=a+b", "x", "a b"}, // '+' means space: slow path
		{"%6e=5", "n", "5"},   // escaped key: slow path
		{"a=1;n=5", "n", ""},  // ';' rejected by stdlib parser too
	}
	for _, c := range cases {
		r := &http.Request{URL: &url.URL{RawQuery: c.raw}}
		if got := queryValue(r, c.key); got != c.want {
			t.Errorf("queryValue(%q, %q) = %q, want %q", c.raw, c.key, got, c.want)
		}
	}
}

// TestCachedPathZeroAlloc is the allocation gate for the hot path: a
// cached /v1/topk, /v1/rank and /v1/compare request through the
// instrumented handler (no timeout configured) must not allocate at all.
// The rank case also runs across a forced GC, which drops what the pools
// hold: the requests after it must go back to allocating nothing, so the
// pooled assembly buffer cannot hide a per-request allocation. The default-algorithm
// cases run on a snapshot without SRSR, which resolves its default to
// the first of its algorithms.
func TestCachedPathZeroAlloc(t *testing.T) {
	srv := New(NewStore(testSnapshot(t, AlgoSRSR, []float64{0.1, 0.5, 0.3, 0.08, 0.02})), Config{})
	plain := New(NewStore(testSnapshot(t, AlgoPageRank, []float64{0.1, 0.5, 0.3, 0.08, 0.02})), Config{})

	topk := srv.instrument(epTopK, true, srv.handleTopK)
	topkReq := httptest.NewRequest(http.MethodGet, "/v1/topk?n=3&algo=srsr", nil)
	rank := srv.instrument(epRank, true, srv.handleRank)
	rankReq := httptest.NewRequest(http.MethodGet, "/v1/rank/2", nil)
	rankReq.SetPathValue("source", "2")
	compare := srv.instrument(epCompare, true, srv.handleCompare)
	compareReq := httptest.NewRequest(http.MethodGet, "/v1/compare?a=1&b=3", nil)
	plainTopK := plain.instrument(epTopK, true, plain.handleTopK)
	plainTopKReq := httptest.NewRequest(http.MethodGet, "/v1/topk?n=3", nil)
	plainRank := plain.instrument(epRank, true, plain.handleRank)
	w := newBenchResponseWriter()
	gcAt := 0

	for name, run := range map[string]func(){
		"topk":    func() { topk.ServeHTTP(w, topkReq) },
		"rank":    func() { rank.ServeHTTP(w, rankReq) },
		"compare": func() { compare.ServeHTTP(w, compareReq) },
		"rank across GC": func() {
			if gcAt++; gcAt == 250 {
				runtime.GC()
				runtime.GC()
			}
			rank.ServeHTTP(w, rankReq)
		},
		"topk default algo without srsr": func() { plainTopK.ServeHTTP(w, plainTopKReq) },
		"rank default algo without srsr": func() { plainRank.ServeHTTP(w, rankReq) },
	} {
		// Warm the recorder pool and header map outside the measurement.
		run()
		if allocs := testing.AllocsPerRun(500, run); allocs > 0.1 {
			t.Errorf("%s cached path allocates %.2f per request, want 0", name, allocs)
		}
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d", name, w.status)
		}
	}
}

// TestServingMixAllocsThroughRouter drives the four requests of the
// serving mix through srv.Handler(), http.ServeMux included, which
// TestCachedPathZeroAlloc bypasses. topk, compare and snapshot allocate
// nothing; rank allocates once, in net/http itself: the slice holding its
// {source} wildcard's match.
func TestServingMixAllocsThroughRouter(t *testing.T) {
	h := New(NewStore(testSnapshot(t, AlgoSRSR, []float64{0.1, 0.5, 0.3, 0.08, 0.02})), Config{}).Handler()
	w := newBenchResponseWriter()
	for _, tc := range []struct {
		path string
		max  float64
	}{
		{"/v1/topk?n=3&algo=srsr", 0},
		{"/v1/rank/2", 1},
		{"/v1/compare?a=1&b=3", 0},
		{"/v1/snapshot", 0},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		run := func() { h.ServeHTTP(w, req) }
		run() // warm the recorder pool and header map
		if allocs := testing.AllocsPerRun(500, run); allocs > tc.max+0.1 {
			t.Errorf("%s through the router allocates %.2f per request, want at most %.0f", tc.path, allocs, tc.max)
		}
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d", tc.path, w.status)
		}
	}
}

// benchResponseWriter is a reusable no-op ResponseWriter for alloc
// measurements: the header map persists across requests so steady-state
// header writes do not grow it.
type benchResponseWriter struct {
	h      http.Header
	status int
	n      int64
}

func newBenchResponseWriter() *benchResponseWriter {
	return &benchResponseWriter{h: make(http.Header, 8), status: http.StatusOK}
}

func (w *benchResponseWriter) Header() http.Header { return w.h }

func (w *benchResponseWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func (w *benchResponseWriter) WriteHeader(code int) { w.status = code }
