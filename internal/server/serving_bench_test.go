package server

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sourcerank/internal/linalg"
)

func benchSnapshot(b *testing.B, n int) *Snapshot {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	scores := make(linalg.Vector, n)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	labels := make([]string, n)
	pages := make([]int, n)
	for i := range labels {
		labels[i] = "source-" + string(rune('a'+i%26)) + "-bench"
		pages[i] = i
	}
	snap, err := NewSnapshot(CorpusInfo{Name: "bench"}, labels, pages, 0,
		map[Algo]*ScoreSet{AlgoSRSR: NewScoreSet(scores, linalg.IterStats{})}, time.Now())
	if err != nil {
		b.Fatal(err)
	}
	return snap
}

// BenchmarkTopKCached measures the cached /v1/topk?n=10 hot path
// through the instrumented handler (routing excluded, no request
// timeout). CI gates on 0 allocs/op.
func BenchmarkTopKCached(b *testing.B) {
	srv := New(NewStore(benchSnapshot(b, 1000)), Config{})
	h := srv.instrument(epTopK, true, srv.handleTopK)
	req := httptest.NewRequest(http.MethodGet, "/v1/topk?n=10&algo=srsr", nil)
	w := newBenchResponseWriter()
	h.ServeHTTP(w, req) // warm the recorder pool and header map
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
	if w.status != http.StatusOK {
		b.Fatalf("status %d", w.status)
	}
}

// BenchmarkTopKOracle is the same request through the encoding/json
// oracle, which encodes the response per request, for comparison.
func BenchmarkTopKOracle(b *testing.B) {
	o := newOracle(NewStore(benchSnapshot(b, 1000)))
	h := o.instrument(epTopK, true, o.topk)
	req := httptest.NewRequest(http.MethodGet, "/v1/topk?n=10&algo=srsr", nil)
	w := newBenchResponseWriter()
	h.ServeHTTP(w, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

// BenchmarkRankCached measures the cached /v1/rank/{source} hot path,
// which assembles the body from the snapshot's retained text: "bench" on
// benchSnapshot's 1 000 sources, "corpus" at the benchmark corpus's shape
// (publishBenchSnapshot's 9 822 sources and labels, three algorithms),
// the size serve_under_refresh reads it at. CI gates on 0 allocs/op.
func BenchmarkRankCached(b *testing.B) {
	for _, bc := range []struct {
		name string
		snap *Snapshot
	}{
		{"bench", benchSnapshot(b, 1000)},
		{"corpus", publishBenchSnapshot(b, rand.New(rand.NewSource(1)), nil, nil)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv := New(NewStore(bc.snap), Config{})
			h := srv.instrument(epRank, true, srv.handleRank)
			req := httptest.NewRequest(http.MethodGet, "/v1/rank/123", nil)
			req.SetPathValue("source", "123")
			w := newBenchResponseWriter()
			h.ServeHTTP(w, req)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(w, req)
			}
			if w.status != http.StatusOK {
				b.Fatalf("status %d", w.status)
			}
		})
	}
}

// BenchmarkRankOracle is the rank endpoint through the oracle.
func BenchmarkRankOracle(b *testing.B) {
	o := newOracle(NewStore(benchSnapshot(b, 1000)))
	h := o.instrument(epRank, true, o.rank)
	req := httptest.NewRequest(http.MethodGet, "/v1/rank/123", nil)
	req.SetPathValue("source", "123")
	w := newBenchResponseWriter()
	h.ServeHTTP(w, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

// BenchmarkCompareCached measures the cached /v1/compare hot path, which
// assembles the body from the same retained text as /v1/rank and formats
// only the score ratio and rank delta, on the two snapshots
// BenchmarkRankCached reads. CI gates on 0 allocs/op.
func BenchmarkCompareCached(b *testing.B) {
	for _, bc := range []struct {
		name string
		snap *Snapshot
	}{
		{"bench", benchSnapshot(b, 1000)},
		{"corpus", publishBenchSnapshot(b, rand.New(rand.NewSource(1)), nil, nil)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv := New(NewStore(bc.snap), Config{})
			benchCompare(b, srv.instrument(epCompare, true, srv.handleCompare))
		})
	}
}

// BenchmarkCompareOracle is the compare endpoint through the oracle.
func BenchmarkCompareOracle(b *testing.B) {
	o := newOracle(NewStore(benchSnapshot(b, 1000)))
	benchCompare(b, o.instrument(epCompare, true, o.compare))
}

// benchCompare times /v1/compare?a=123&b=456 through h, an instrumented
// handler.
func benchCompare(b *testing.B, h http.Handler) {
	req := httptest.NewRequest(http.MethodGet, "/v1/compare?a=123&b=456&algo=srsr", nil)
	w := newBenchResponseWriter()
	h.ServeHTTP(w, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
	if w.status != http.StatusOK {
		b.Fatalf("status %d", w.status)
	}
}

// BenchmarkNewScoreSet times the rank index a publish resolves for every
// changed vector (rankIndex, an LSD radix sort) on 100 000 distinct
// scores, and on scores quantised to 1/1000, where almost every source
// ties and the ID order of equal keys carries the result.
func BenchmarkNewScoreSet(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	for _, quantum := range []float64{0, 1000} {
		scores := make(linalg.Vector, 100_000)
		for i := range scores {
			if scores[i] = rng.Float64(); quantum > 0 {
				scores[i] = math.Round(scores[i]*quantum) / quantum
			}
		}
		name := "distinct"
		if quantum > 0 {
			name = "tied"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewScoreSet(scores, linalg.IterStats{}).index()
			}
		})
	}
}

// BenchmarkPublishFinalize measures the full per-publish pre-encoding
// cost (rank index, score texts, top-K payloads, heads, metadata) that
// buys the allocation-free read path.
func BenchmarkPublishFinalize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		snap := benchSnapshot(b, 1000)
		store := NewStore(nil)
		b.StartTimer()
		store.Publish(snap)
	}
}

// publishBenchSnapshot is a snapshot of the benchmark corpus's shape
// (UK2002 at scale 0.1: 9 822 sources, three algorithms). labels and
// pages, when given, are shared with the returned snapshot, as a refresh
// that left the corpus alone would.
func publishBenchSnapshot(b *testing.B, rng *rand.Rand, labels []string, pages []int) *Snapshot {
	b.Helper()
	const n = 9822
	if labels == nil {
		labels, pages = make([]string, n), make([]int, n)
		for i := range labels {
			labels[i] = fmt.Sprintf("host-%d.example.org", i)
			pages[i] = rng.Intn(400)
		}
	}
	sets := make(map[Algo]*ScoreSet, len(DefaultAlgos))
	for _, algo := range DefaultAlgos {
		scores := make(linalg.Vector, n)
		for i := range scores {
			scores[i] = rng.Float64() / n
		}
		sets[algo] = NewScoreSet(scores, linalg.IterStats{})
	}
	snap, err := NewSnapshot(CorpusInfo{Name: "bench"}, labels, pages, 0, sets, time.Now())
	if err != nil {
		b.Fatal(err)
	}
	return snap
}

// BenchmarkColdPublish is the first publish of a lineage: nothing to
// carry, so every label is escaped and every algorithm indexed and
// rendered — what a builder and each replica pay once per cold start.
// One untimed publish first fills encoding/json's per-type cache for the
// /v1/snapshot document, a once-per-process cost, so that CI's 1x run
// counts what a publish allocates.
func BenchmarkColdPublish(b *testing.B) {
	NewStore(publishBenchSnapshot(b, rand.New(rand.NewSource(2)), nil, nil))
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		snap := publishBenchSnapshot(b, rng, nil, nil)
		store := NewStore(nil)
		b.StartTimer()
		store.Publish(snap)
	}
}

// BenchmarkDeltaPublish is a publish over a live predecessor with every
// score vector changed and the corpus unchanged: escaped labels and the
// label map are carried, all three algorithms are indexed and rendered.
func BenchmarkDeltaPublish(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	store := NewStore(publishBenchSnapshot(b, rng, nil, nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cur := store.Current()
		snap := publishBenchSnapshot(b, rng, cur.labels, cur.pageCount)
		b.StartTimer()
		store.Publish(snap)
	}
}

// BenchmarkObserve tracks the sharded metrics hot path.
func BenchmarkObserve(b *testing.B) {
	m := NewMetrics(allEndpoints...)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := time.Duration(0)
		for pb.Next() {
			d += 73 * time.Nanosecond
			m.Observe(epTopK, 200, d)
		}
	})
}
