package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMetricsShardedCountsExact proves sharding never loses or
// double-counts: concurrent observers produce exact totals.
func TestMetricsShardedCountsExact(t *testing.T) {
	m := NewMetrics("ep")
	const (
		workers = 8
		perW    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				// Vary durations so observations spread across shards.
				m.Observe("ep", 200, time.Duration(w*perW+i)*time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if got := m.Requests("ep"); got != workers*perW {
		t.Fatalf("Requests = %d, want %d", got, workers*perW)
	}
	st := m.endpoints["ep"].merge()
	if st.byClass[0] != workers*perW {
		t.Fatalf("2xx class = %d, want %d", st.byClass[0], workers*perW)
	}
	var bucketSum uint64
	for _, b := range st.buckets {
		bucketSum += b
	}
	if bucketSum != workers*perW {
		t.Fatalf("bucket sum = %d, want %d", bucketSum, workers*perW)
	}
}

func TestMetricsQuantile(t *testing.T) {
	m := NewMetrics("ep")
	// 90 fast requests (~0.2ms bucket), 10 slow (~50ms bucket).
	for i := 0; i < 90; i++ {
		m.Observe("ep", 200, 200*time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		m.Observe("ep", 200, 40*time.Millisecond)
	}
	p50 := m.Quantile("ep", 0.50)
	if p50 <= 0.0001 || p50 > 0.00025 {
		t.Fatalf("p50 = %g, want within (0.0001, 0.00025]", p50)
	}
	p99 := m.Quantile("ep", 0.99)
	if p99 <= 0.025 || p99 > 0.05 {
		t.Fatalf("p99 = %g, want within (0.025, 0.05]", p99)
	}
	if q := m.Quantile("missing", 0.5); q != 0 {
		t.Fatalf("unknown endpoint quantile = %g", q)
	}
	if q := NewMetrics("e").Quantile("e", 0.5); q != 0 {
		t.Fatalf("empty quantile = %g", q)
	}
}

func TestMetricsTextIncludesPercentiles(t *testing.T) {
	m := NewMetrics("topk")
	for i := 0; i < 100; i++ {
		m.Observe("topk", 200, time.Millisecond)
	}
	var sb strings.Builder
	m.WriteText(&sb, 3, 3, 10, 0)
	text := sb.String()
	for _, want := range []string{
		`# TYPE srserve_request_seconds_p50 gauge`,
		`srserve_request_seconds_p50{endpoint="topk"}`,
		`# TYPE srserve_request_seconds_p99 gauge`,
		`srserve_request_seconds_p99{endpoint="topk"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, text)
		}
	}
}

// TestObserveZeroAlloc gates the metrics hot path.
func TestObserveZeroAlloc(t *testing.T) {
	m := NewMetrics("ep")
	var d time.Duration
	if allocs := testing.AllocsPerRun(500, func() {
		d += 137 * time.Nanosecond
		m.Observe("ep", 200, d)
	}); allocs > 0.1 {
		t.Fatalf("Observe allocates %.2f per call, want 0", allocs)
	}
}

// TestMetricsPublishCostAndCacheBytes checks the two publish gauges: the
// last publish's wall time, and the pre-rendered text the served
// snapshot retains, summed here from the cache's own arrays.
func TestMetricsPublishCostAndCacheBytes(t *testing.T) {
	m := NewMetrics()
	store := NewStore(nil)
	var sb strings.Builder
	m.WritePublishText(&sb, store)
	for _, want := range []string{"srserve_publish_last_seconds 0.000000\n", "srserve_snapshot_cache_bytes 0\n"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("empty store: metrics missing %q:\n%s", want, sb.String())
		}
	}
	store.Publish(nastySnapshot(t))
	c := store.Current().resp
	want := len(c.meta)
	for _, a := range []*textArena{c.digits, c.heads.textArena, c.tails} {
		want += len(a.b) + 4*len(a.offs)
	}
	for algo, tc := range c.topk {
		sc := c.scores[algo]
		want += len(tc.head) + len(tc.entries) + 8*len(tc.ends) + len(c.rank[algo].head) + len(c.rank[algo].compare) + len(sc.b) + 4*len(sc.offs)
	}
	sb.Reset()
	m.WritePublishText(&sb, store)
	text := sb.String()
	if !strings.Contains(text, fmt.Sprintf("srserve_snapshot_cache_bytes %d\n", want)) {
		t.Fatalf("metrics missing srserve_snapshot_cache_bytes %d:\n%s", want, text)
	}
	var secs float64
	if _, err := fmt.Sscanf(text[strings.Index(text, "\nsrserve_publish_last_seconds ")+1:], "srserve_publish_last_seconds %g", &secs); err != nil || secs <= 0 {
		t.Fatalf("srserve_publish_last_seconds = %g (%v), want > 0:\n%s", secs, err, text)
	}
	for _, want := range []string{"# TYPE srserve_publish_last_seconds gauge", "# TYPE srserve_snapshot_cache_bytes gauge"} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}
