package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// backdate makes the store look like its snapshot was published `age`
// ago, without sleeping through a real staleness budget.
func backdate(s *Store, age time.Duration) {
	s.publishedAt.Store(time.Now().Add(-age).UnixNano())
}

func TestHealthzDegradedOnStaleSnapshot(t *testing.T) {
	store := NewStore(testSnapshot(t, AlgoSRSR, []float64{0.6, 0.4}))
	srv := New(store, Config{StalenessBudget: time.Minute})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	// Fresh snapshot: healthy, no stale header anywhere.
	resp, body := get("/healthz")
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("fresh healthz: %d %v", resp.StatusCode, body)
	}
	resp, _ = get("/v1/topk?n=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh topk: %d", resp.StatusCode)
	}
	if h := resp.Header.Get("X-Snapshot-Stale"); h != "" {
		t.Fatalf("fresh snapshot flagged stale: %q", h)
	}

	// Snapshot older than the budget: healthz degrades to 503 naming the
	// stale age, while the data endpoints keep answering from the stale
	// snapshot with the X-Snapshot-Stale header.
	backdate(store, 5*time.Minute)
	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stale healthz status = %d, want 503", resp.StatusCode)
	}
	if body["status"] != "degraded" {
		t.Fatalf("stale healthz body: %v", body)
	}
	stale, ok := body["stale_seconds"].(float64)
	if !ok || stale < (5*time.Minute).Seconds()-1 {
		t.Fatalf("stale_seconds = %v, want ≈300", body["stale_seconds"])
	}

	for _, path := range []string{"/v1/topk?n=2", "/v1/rank/sa0"} {
		resp, _ = get(path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("degraded %s status = %d, want 200", path, resp.StatusCode)
		}
		if h := resp.Header.Get("X-Snapshot-Stale"); h == "" {
			t.Fatalf("degraded %s missing X-Snapshot-Stale header", path)
		}
	}

	// Re-publishing resets the clock: healthy again.
	store.Publish(testSnapshot(t, AlgoSRSR, []float64{0.6, 0.4}))
	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("post-republish healthz: %d %v", resp.StatusCode, body)
	}
}

func TestHealthzNoBudgetNeverDegrades(t *testing.T) {
	store := NewStore(testSnapshot(t, AlgoSRSR, []float64{1}))
	backdate(store, 24*time.Hour)
	srv := New(store, Config{}) // no StalenessBudget
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz without budget = %d, want 200", rec.Code)
	}
}

func TestInFlightCapShedsLoad(t *testing.T) {
	store := NewStore(testSnapshot(t, AlgoSRSR, []float64{1, 2}))
	srv := New(store, Config{MaxInFlight: 1})

	// Drive instrument directly with a handler we can hold open, so the
	// cap is exercised deterministically rather than by racing fast
	// real handlers.
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	h := srv.instrument(epTopK, true, func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})

	first := httptest.NewRecorder()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.ServeHTTP(first, httptest.NewRequest("GET", "/v1/topk", nil))
	}()
	<-entered // the slot is now occupied

	second := httptest.NewRecorder()
	h.ServeHTTP(second, httptest.NewRequest("GET", "/v1/topk", nil))
	if second.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-cap request = %d, want 503", second.Code)
	}
	if second.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if got := srv.Metrics().Shed(epTopK); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	close(release)
	wg.Wait()
	if first.Code != http.StatusOK {
		t.Fatalf("in-cap request = %d, want 200", first.Code)
	}

	// The slot freed: the next request is admitted again.
	release = make(chan struct{})
	close(release)
	third := httptest.NewRecorder()
	h.ServeHTTP(third, httptest.NewRequest("GET", "/v1/topk", nil))
	if third.Code != http.StatusOK {
		t.Fatalf("post-shed request = %d, want 200", third.Code)
	}

	// Uncapped endpoints (healthz path) ignore MaxInFlight entirely.
	uncapped := srv.instrument(epHealthz, false, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		uncapped.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("uncapped request %d = %d", i, rec.Code)
		}
	}
}

func TestRefresherBackoffDelays(t *testing.T) {
	r := &Refresher{
		Interval:   100 * time.Millisecond,
		MaxBackoff: 500 * time.Millisecond,
		rnd:        func() float64 { return 0.5 }, // jitter factor exactly 1.0
	}
	cases := []struct {
		failures uint64
		want     time.Duration
	}{
		{0, 100 * time.Millisecond},
		{1, 200 * time.Millisecond},
		{2, 400 * time.Millisecond},
		{3, 500 * time.Millisecond}, // capped
		{10, 500 * time.Millisecond},
	}
	for _, c := range cases {
		r.failures.Store(c.failures)
		if got := r.nextDelay(); got != c.want {
			t.Errorf("nextDelay after %d failures = %v, want %v", c.failures, got, c.want)
		}
	}

	// Jitter spreads the delay over [0.8d, 1.2d].
	r.failures.Store(0)
	r.rnd = func() float64 { return 0 }
	if got := r.nextDelay(); got != 80*time.Millisecond {
		t.Errorf("low jitter = %v, want 80ms", got)
	}
	r.rnd = func() float64 { return 0.9999999 }
	if got := r.nextDelay(); got < 119*time.Millisecond || got > 120*time.Millisecond {
		t.Errorf("high jitter = %v, want ≈120ms", got)
	}

	// Default cap is 16×Interval.
	r.MaxBackoff = 0
	r.failures.Store(20)
	r.rnd = func() float64 { return 0.5 }
	if got := r.nextDelay(); got != 1600*time.Millisecond {
		t.Errorf("default cap = %v, want 1.6s", got)
	}
}

func TestRefreshNowTracksFailuresAndDuration(t *testing.T) {
	store := NewStore(nil)
	fail := true
	r := &Refresher{
		Store:    store,
		Interval: time.Minute,
		Build: func(ctx context.Context) (*Snapshot, error) {
			if fail {
				return nil, fmt.Errorf("synthetic")
			}
			time.Sleep(time.Millisecond)
			return testSnapshot(t, AlgoSRSR, []float64{1}), nil
		},
	}
	for i := 1; i <= 3; i++ {
		if err := r.RefreshNow(context.Background()); err == nil {
			t.Fatal("failed build returned nil error")
		}
		if got := r.ConsecutiveFailures(); got != uint64(i) {
			t.Fatalf("after %d failures counter = %d", i, got)
		}
	}
	if store.Publishes() != 0 {
		t.Fatal("failed builds published")
	}
	fail = false
	if err := r.RefreshNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := r.ConsecutiveFailures(); got != 0 {
		t.Fatalf("success did not reset failures: %d", got)
	}
	if r.LastBuildDuration() <= 0 {
		t.Fatal("LastBuildDuration not recorded")
	}
	if store.Publishes() != 1 {
		t.Fatalf("publishes = %d, want 1", store.Publishes())
	}
}

// TestRefresherNoImmediateRefireAfterLongBuild pins the scheduling fix:
// a build that outlives the interval must not be followed by an
// immediate back-to-back rebuild fired from a tick buffered during the
// build. The gap between build starts must always include a full
// post-build delay.
func TestRefresherNoImmediateRefireAfterLongBuild(t *testing.T) {
	const (
		interval  = 50 * time.Millisecond
		buildTime = 100 * time.Millisecond
	)
	store := NewStore(testSnapshot(t, AlgoSRSR, []float64{1}))
	var mu sync.Mutex
	var starts []time.Time
	r := &Refresher{
		Store:    store,
		Interval: interval,
		Build: func(ctx context.Context) (*Snapshot, error) {
			mu.Lock()
			starts = append(starts, time.Now())
			mu.Unlock()
			time.Sleep(buildTime)
			return testSnapshot(t, AlgoSRSR, []float64{1}), nil
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { r.Run(ctx); close(done) }()
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(starts) >= 3
	})
	cancel()
	<-done

	mu.Lock()
	defer mu.Unlock()
	// Each gap is buildTime + a jittered interval ≥ 0.8·interval; a
	// buffered-tick refire would make it ≈ buildTime alone.
	min := buildTime + interval/2
	for i := 1; i < len(starts); i++ {
		if gap := starts[i].Sub(starts[i-1]); gap < min {
			t.Fatalf("build %d started %v after build %d; refired from a stale tick (want ≥ %v)",
				i, gap, i-1, min)
		}
	}
}
