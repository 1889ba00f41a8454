package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"sourcerank/internal/gen"
)

// TestServeEndToEnd is the golden serving test: generate a small
// deterministic preset corpus, compute the snapshot offline, start the
// real server on an ephemeral port, and assert over real HTTP that
// /v1/topk returns exactly the offline ordering and that /metrics
// reflects the traffic — all while a background publisher hot-swaps a
// recomputed snapshot mid-flight.
func TestServeEndToEnd(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	buildCfg := BuildConfig{Name: ds.Name}
	snap, err := BuildSnapshot(ds.Pages, ds.SpamSources, buildCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Golden expectation, computed offline from the same snapshot.
	golden := snap.TopK(AlgoSRSR, 10)

	store := NewStore(snap)
	srv := New(store, Config{RequestTimeout: 10 * time.Second})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + l.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.RunListener(ctx, l) }()
	t.Cleanup(func() {
		cancel()
		if err := <-serveErr; err != nil {
			t.Errorf("server exit: %v", err)
		}
	})
	waitHealthy(t, base)

	// 1. Golden top-k over real HTTP.
	var tk topKResponse
	getJSON(t, base+"/v1/topk?n=10&algo=srsr", &tk)
	if tk.Version != 1 {
		t.Fatalf("version %d, want 1", tk.Version)
	}
	if len(tk.Results) != len(golden) {
		t.Fatalf("got %d results, want %d", len(tk.Results), len(golden))
	}
	for i, e := range tk.Results {
		if e.Source != golden[i].Source || e.Rank != golden[i].Rank {
			t.Fatalf("topk[%d] = %+v, want %+v", i, e, golden[i])
		}
		if diff := e.Score - golden[i].Score; diff > 1e-15 || diff < -1e-15 {
			t.Fatalf("topk[%d] score %g != %g", i, e.Score, golden[i].Score)
		}
	}

	// 2. Rank + compare agree with the golden ordering.
	var rr rankResponse
	getJSON(t, base+fmt.Sprintf("/v1/rank/%d", golden[0].Source), &rr)
	if rr.Rank != 1 {
		t.Fatalf("top source served rank %d", rr.Rank)
	}
	var cr compareResponse
	getJSON(t, base+fmt.Sprintf("/v1/compare?a=%d&b=%d", golden[0].Source, golden[1].Source), &cr)
	if cr.RankDelta != 1 {
		t.Fatalf("compare delta %d", cr.RankDelta)
	}

	// 3. Hammer reads while a background recompute (fresh spam labels —
	// here: a subset, as if labels changed) publishes a new snapshot.
	republished := make(chan uint64, 1)
	go func() {
		snap2, err := BuildSnapshot(ds.Pages, ds.SpamSources[:len(ds.SpamSources)/2], buildCfg)
		if err != nil {
			t.Errorf("rebuild: %v", err)
			republished <- 0
			return
		}
		republished <- store.Publish(snap2)
	}()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var r topKResponse
				getJSON(t, base+"/v1/topk?n=5", &r)
				// Every response is internally consistent regardless of
				// which snapshot served it.
				for i := 1; i < len(r.Results); i++ {
					if r.Results[i].Score > r.Results[i-1].Score {
						t.Errorf("unsorted response during swap: %+v", r.Results)
						return
					}
					if r.Results[i].Rank != i+1 {
						t.Errorf("bad rank during swap: %+v", r.Results[i])
						return
					}
				}
			}
		}()
	}
	v2 := <-republished
	close(stop)
	wg.Wait()
	if v2 != 2 {
		t.Fatalf("republish version = %d, want 2", v2)
	}

	// 4. After the swap, reads observe the new version.
	var after topKResponse
	getJSON(t, base+"/v1/topk?n=10&algo=srsr", &after)
	if after.Version != 2 {
		t.Fatalf("post-swap version %d, want 2", after.Version)
	}

	// 5. Metrics counted the traffic and the publish.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`srserve_requests_total{endpoint="topk",class="2xx"}`,
		`srserve_requests_total{endpoint="rank",class="2xx"} 1`,
		"srserve_snapshot_version 2",
		"srserve_snapshot_publishes_total 2",
		`srserve_request_seconds_count{endpoint="topk"}`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if n := srv.Metrics().Requests(epTopK); n < 3 {
		t.Fatalf("topk request count %d, want >= 3", n)
	}
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("server never became healthy")
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

// TestRefresherPublishes drives the Refresher loop with a fast interval
// and checks publish/error callbacks.
func TestRefresherPublishes(t *testing.T) {
	store := NewStore(testSnapshot(t, AlgoSRSR, []float64{1, 2}))
	var mu sync.Mutex
	var published []uint64
	fail := false
	var failErr error
	ref := &Refresher{
		Store:    store,
		Interval: 5 * time.Millisecond,
		Build: func(ctx context.Context) (*Snapshot, error) {
			mu.Lock()
			defer mu.Unlock()
			if fail {
				return nil, fmt.Errorf("synthetic build failure")
			}
			return testSnapshot(t, AlgoSRSR, []float64{2, 1}), nil
		},
		OnPublish: func(v uint64, _ *Snapshot, _ time.Duration) {
			mu.Lock()
			published = append(published, v)
			mu.Unlock()
		},
		OnError: func(err error) {
			mu.Lock()
			failErr = err
			mu.Unlock()
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { ref.Run(ctx); close(done) }()

	waitFor(t, time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(published) >= 2
	})
	mu.Lock()
	fail = true
	mu.Unlock()
	waitFor(t, time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return failErr != nil
	})
	cancel()
	<-done

	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(published); i++ {
		if published[i] != published[i-1]+1 {
			t.Fatalf("non-monotonic publishes %v", published)
		}
	}
	// A failed build must not unpublish: the store still serves.
	if store.Current() == nil {
		t.Fatal("store lost its snapshot after a failed refresh")
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met in time")
}
