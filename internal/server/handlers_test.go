package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
)

func newTestServer(t *testing.T, snap *Snapshot) *Server {
	t.Helper()
	var store *Store
	if snap != nil {
		store = NewStore(snap)
	} else {
		store = NewStore(nil)
	}
	return New(store, Config{})
}

func get(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body := map[string]any{}
	if strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", path, err, rec.Body.String())
		}
	}
	return rec, body
}

func TestHandleRank(t *testing.T) {
	snap := testSnapshot(t, AlgoSRSR, []float64{0.1, 0.5, 0.3, 0.08, 0.02})
	h := newTestServer(t, snap).Handler()

	rec, body := get(t, h, "/v1/rank/1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if body["rank"].(float64) != 1 || body["score"].(float64) != 0.5 {
		t.Fatalf("body %v", body)
	}
	if body["version"].(float64) != 1 {
		t.Fatalf("version %v, want 1", body["version"])
	}

	// Label lookup resolves to the same source.
	rec2, body2 := get(t, h, "/v1/rank/"+snap.labels[1])
	if rec2.Code != http.StatusOK || body2["source"].(float64) != 1 {
		t.Fatalf("label lookup: %d %v", rec2.Code, body2)
	}

	if rec, _ := get(t, h, "/v1/rank/999"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown source: %d", rec.Code)
	}
	if rec, _ := get(t, h, "/v1/rank/1?algo=bogus"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bogus algo: %d", rec.Code)
	}
}

func TestHandleTopK(t *testing.T) {
	snap := testSnapshot(t, AlgoSRSR, []float64{0.1, 0.5, 0.3, 0.08, 0.02})
	h := newTestServer(t, snap).Handler()

	rec, body := get(t, h, "/v1/topk?n=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	results := body["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	first := results[0].(map[string]any)
	if first["source"].(float64) != 1 {
		t.Fatalf("top source %v", first)
	}
	if rec, _ := get(t, h, "/v1/topk?n=-3"); rec.Code != http.StatusBadRequest {
		t.Fatalf("negative n: %d", rec.Code)
	}
	if rec, _ := get(t, h, "/v1/topk?n=x"); rec.Code != http.StatusBadRequest {
		t.Fatalf("non-numeric n: %d", rec.Code)
	}
	// Default n.
	if _, body := get(t, h, "/v1/topk"); len(body["results"].([]any)) != 5 {
		t.Fatalf("default n gave %v", body["n"])
	}
}

func TestHandleCompare(t *testing.T) {
	snap := testSnapshot(t, AlgoSRSR, []float64{0.1, 0.5, 0.3})
	h := newTestServer(t, snap).Handler()

	rec, body := get(t, h, "/v1/compare?a=1&b=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if body["rank_delta"].(float64) != 1 {
		t.Fatalf("rank_delta %v", body["rank_delta"])
	}
	if rec, _ := get(t, h, "/v1/compare?a=1"); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing b: %d", rec.Code)
	}
	if rec, _ := get(t, h, "/v1/compare?a=1&b=zzz"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown b: %d", rec.Code)
	}
}

func TestHandleHealthzAndEmptyStore(t *testing.T) {
	empty := newTestServer(t, nil)
	h := empty.Handler()
	if rec, _ := get(t, h, "/healthz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("empty healthz: %d", rec.Code)
	}
	if rec, _ := get(t, h, "/v1/topk"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("empty topk: %d", rec.Code)
	}

	snap := testSnapshot(t, AlgoSRSR, []float64{1})
	empty.Store().Publish(snap)
	rec, body := get(t, h, "/healthz")
	if rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz after publish: %d %v", rec.Code, body)
	}
}

func TestHandleSnapshotMeta(t *testing.T) {
	snap := testSnapshot(t, AlgoSRSR, []float64{0.6, 0.4})
	h := newTestServer(t, snap).Handler()
	rec, body := get(t, h, "/v1/snapshot")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if body["publishes"].(float64) != 1 {
		t.Fatalf("publishes %v", body["publishes"])
	}
	algos := body["algos"].([]any)
	if len(algos) != 1 || algos[0] != "srsr" {
		t.Fatalf("algos %v", algos)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	snap := testSnapshot(t, AlgoSRSR, []float64{0.6, 0.4})
	srv := newTestServer(t, snap)
	h := srv.Handler()

	for i := 0; i < 3; i++ {
		get(t, h, "/v1/topk?n=1")
	}
	get(t, h, "/v1/rank/0")
	get(t, h, "/v1/rank/notfound")

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{
		`srserve_requests_total{endpoint="topk",class="2xx"} 3`,
		`srserve_requests_total{endpoint="rank",class="2xx"} 1`,
		`srserve_requests_total{endpoint="rank",class="4xx"} 1`,
		"srserve_snapshot_version 1",
		"srserve_snapshot_publishes_total 1",
		"srserve_request_seconds_bucket",
		`srserve_request_seconds_count{endpoint="topk"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
	if srv.Metrics().Requests(epTopK) != 3 {
		t.Fatalf("Requests(topk) = %d", srv.Metrics().Requests(epTopK))
	}
}

// A server booted from a corpus file says on /metrics what the read
// cost; one whose corpus was generated in process has no such series.
func TestMetricsCorpusLoad(t *testing.T) {
	snap := testSnapshot(t, AlgoSRSR, []float64{0.6, 0.4})
	metrics := func(cfg Config) string {
		rec := httptest.NewRecorder()
		New(NewStore(snap), cfg).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return rec.Body.String()
	}
	text := metrics(Config{CorpusLoad: &pagegraph.LoadStats{Path: "uk.pages", Bytes: 11329044, Seconds: 0.0196}})
	for _, want := range []string{"srserve_corpus_load_seconds 0.019600\n", "srserve_corpus_bytes 11329044\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
	if text := metrics(Config{}); strings.Contains(text, "srserve_corpus_") {
		t.Errorf("corpus series without a corpus file:\n%s", text)
	}
}

// TestMetricsBuildBranches: a server handed its builder says on /metrics
// how long each solve branch of the last build ran and whether the two ran
// at once, so an operator reads which branch was the build's critical
// path. Before the first build, and
// on a server without a builder, there is no such series.
func TestMetricsBuildBranches(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := testCorpus(t, ds.Pages)
	b := &Builder{Config: BuildConfig{Workers: 2}}
	metrics := func(snap *Snapshot, cfg Config) string {
		rec := httptest.NewRecorder()
		New(NewStore(snap), cfg).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return rec.Body.String()
	}
	if text := metrics(testSnapshot(t, AlgoSRSR, []float64{0.6, 0.4}), Config{Builder: b}); strings.Contains(text, "srserve_build_") {
		t.Errorf("build series before the first build:\n%s", text)
	}
	for _, want := range []struct {
		what       string
		concurrent int
	}{
		// The cold build solves everything: SRSR beside the baselines.
		{"cold build", 1},
		// Nothing changed: SRSR probes its residual and both baselines
		// are carried, so the branches run in turn.
		{"unchanged build", 0},
	} {
		snap, info, err := b.Build(c, ds.SpamSources)
		if err != nil {
			t.Fatal(err)
		}
		text := metrics(snap, Config{Builder: b})
		for _, line := range []string{
			fmt.Sprintf("srserve_build_branch_seconds{branch=\"srsr\"} %.6f\n", info.SRSRWall.Seconds()),
			fmt.Sprintf("srserve_build_branch_seconds{branch=\"baselines\"} %.6f\n", info.BaselinesWall.Seconds()),
			fmt.Sprintf("srserve_build_branches_concurrent %d\n", want.concurrent),
		} {
			if !strings.Contains(text, line) {
				t.Errorf("%s: metrics output missing %q:\n%s", want.what, line, text)
			}
		}
		if text := metrics(snap, Config{}); strings.Contains(text, "srserve_build_") {
			t.Errorf("%s: build series on a server without a builder:\n%s", want.what, text)
		}
	}
}

// No endpoint answers 200 with an empty body: a pair of finite scores
// whose ratio overflows (1e300 over 1e-300) gets a 500 with the error
// envelope from the rendered server and from the oracle alike, and every
// other answer is a 200 with a JSON document. A NaN or infinite score
// never reaches a handler: NewSnapshot refuses it.
func TestNoEmptyOK(t *testing.T) {
	labels := []string{"half", "huge", "tiny"}
	scores := linalg.Vector{0.5, 1e300, 1e-300}
	snap, err := NewSnapshot(CorpusInfo{Name: "overflow"}, labels, make([]int, len(labels)), 0,
		map[Algo]*ScoreSet{AlgoSRSR: NewScoreSet(scores, linalg.IterStats{})}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{} // path -> whether encoding/json accepts its document
	for a := range labels {
		want[fmt.Sprintf("/v1/rank/%d", a)] = true
		for b := range labels {
			want[fmt.Sprintf("/v1/compare?a=%d&b=%d", a, b)] = !(a == 1 && b == 2)
		}
	}
	for n := 0; n <= len(labels); n++ {
		want[fmt.Sprintf("/v1/topk?n=%d", n)] = true
	}
	rendered, ref := twoServers(NewStore(snap))
	for name, h := range map[string]http.Handler{"rendered": rendered.Handler(), "oracle": ref.Handler()} {
		for path, ok := range want {
			rec := rawGet(t, h, path, nil)
			body := rec.Body.Bytes()
			if rec.Code == http.StatusOK && len(body) == 0 {
				t.Fatalf("%s %s: 200 with an empty body", name, path)
			}
			if !json.Valid(body) {
				t.Fatalf("%s %s: body is not JSON: %q", name, path, body)
			}
			wantCode := http.StatusOK
			if !ok {
				wantCode = http.StatusInternalServerError
			}
			if rec.Code != wantCode {
				t.Fatalf("%s %s: status %d, want %d: %s", name, path, rec.Code, wantCode, body)
			}
			if !ok && !strings.Contains(string(body), `"error": "encoding response: json: unsupported value: `) {
				t.Fatalf("%s %s: %s, want the error envelope", name, path, body)
			}
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		sets := map[Algo]*ScoreSet{AlgoSRSR: NewScoreSet(linalg.Vector{0.5, bad, 1e-300}, linalg.IterStats{})}
		if _, err := NewSnapshot(CorpusInfo{Name: "nonfinite"}, labels, make([]int, len(labels)), 0, sets, time.Now()); !errors.Is(err, linalg.ErrNonFinite) {
			t.Fatalf("NewSnapshot over a %v score = %v, want linalg.ErrNonFinite", bad, err)
		}
	}
}
