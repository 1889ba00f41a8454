package replica

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sourcerank/internal/server"
)

func builderServer(t *testing.T, st *server.Store) (*httptest.Server, *Publisher) {
	t.Helper()
	pub := NewPublisher(st, 8)
	pub.rnd = func() float64 { return 0 }
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/replica/snapshot" {
			http.NotFound(w, r)
			return
		}
		pub.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, pub
}

func TestPullerFullThenNotModifiedThenDelta(t *testing.T) {
	bst := server.NewStore(nil)
	bst.Publish(rawSnapshot(t, 48, 21))
	srv, pub := builderServer(t, bst)

	rst := server.NewStore(nil)
	p := &Puller{Builder: srv.URL, Store: rst, Interval: time.Second}
	ctx := context.Background()

	// First sync: full transfer.
	if err := p.SyncNow(ctx); err != nil {
		t.Fatalf("first sync: %v", err)
	}
	if p.FullSyncs() != 1 || p.Version() != bst.Current().Version() {
		t.Fatalf("after first sync: fulls=%d version=%d", p.FullSyncs(), p.Version())
	}
	if Fingerprint(rst.Current()) != Fingerprint(bst.Current()) {
		t.Fatal("replica state differs from builder after full sync")
	}

	// Nothing changed: 304.
	if err := p.SyncNow(ctx); err != nil {
		t.Fatalf("second sync: %v", err)
	}
	if p.NotModified() != 1 {
		t.Fatalf("NotModified = %d, want 1", p.NotModified())
	}

	// Builder publishes a small change: delta transfer, byte-identical
	// to a full pull.
	bst.Publish(perturb(t, bst.Current(), 22, 0.1))
	if err := p.SyncNow(ctx); err != nil {
		t.Fatalf("third sync: %v", err)
	}
	if p.DeltaSyncs() != 1 {
		t.Fatalf("DeltaSyncs = %d, want 1 (fulls=%d)", p.DeltaSyncs(), p.FullSyncs())
	}
	if string(fullFrame(rst.Current())) != string(fullFrame(bst.Current())) {
		t.Fatal("delta-synced replica is not byte-identical to the builder")
	}
	var served strings.Builder
	pub.WriteMetricsText(&served)
	for _, kind := range []string{"full", "not_modified", "delta"} {
		if want := `srserve_replica_served_total{kind="` + kind + `"} 1` + "\n"; !strings.Contains(served.String(), want) {
			t.Fatalf("publisher metrics missing %q in:\n%s", want, served.String())
		}
	}
	if p.ConsecutiveFailures() != 0 {
		t.Fatalf("failures = %d, want 0", p.ConsecutiveFailures())
	}
}

func TestPullerEmptyBuilderBacksOffWithRetryAfterHint(t *testing.T) {
	bst := server.NewStore(nil) // never published
	srv, _ := builderServer(t, bst)

	p := &Puller{
		Builder:  srv.URL,
		Store:    server.NewStore(nil),
		Interval: 100 * time.Millisecond,
		rnd:      func() float64 { return 0.5 }, // jitter factor exactly 1.0
	}
	if err := p.SyncNow(context.Background()); err == nil {
		t.Fatal("sync against empty builder succeeded")
	}
	if p.ConsecutiveFailures() != 1 {
		t.Fatalf("failures = %d, want 1", p.ConsecutiveFailures())
	}
	// The 503 carried Retry-After: 1 (pinned publisher rnd); that floors
	// the 200ms backoff delay up to 1s.
	if d := p.nextDelay(); d != time.Second {
		t.Fatalf("nextDelay = %v, want 1s (Retry-After floor)", d)
	}
	// Hint is consumed: next delay falls back to pure backoff (2
	// failures after another failed sync would be 400ms; with one
	// failure recorded it is 200ms).
	if d := p.nextDelay(); d != 200*time.Millisecond {
		t.Fatalf("nextDelay after hint consumed = %v, want 200ms", d)
	}
}

func TestPullerBackoffDoublesAndCaps(t *testing.T) {
	p := &Puller{
		Interval:   100 * time.Millisecond,
		MaxBackoff: 400 * time.Millisecond,
		rnd:        func() float64 { return 0.5 },
	}
	for want, failures := range map[time.Duration]uint64{
		100 * time.Millisecond: 0,
		200 * time.Millisecond: 1,
		400 * time.Millisecond: 2,
	} {
		p.failures.Store(failures)
		if d := p.nextDelay(); d != want {
			t.Fatalf("nextDelay(failures=%d) = %v, want %v", failures, d, want)
		}
	}
	p.failures.Store(10)
	if d := p.nextDelay(); d != 400*time.Millisecond {
		t.Fatalf("nextDelay(failures=10) = %v, want cap 400ms", d)
	}
}

func TestPullerRejectsTornTransferAndKeepsServing(t *testing.T) {
	bst := server.NewStore(nil)
	bst.Publish(rawSnapshot(t, 32, 23))
	srv, _ := builderServer(t, bst)

	rst := server.NewStore(nil)
	p := &Puller{Builder: srv.URL, Store: rst, Interval: time.Second}
	if err := p.SyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	served := rst.Current()

	// Swap in a transport that corrupts every response, then publish a
	// change: the sync must fail verification and leave the old snapshot
	// serving.
	ft := NewFlakyTransport(http.DefaultTransport, 1)
	ft.CorruptProb = 1
	p.Client = &http.Client{Transport: ft}
	bst.Publish(perturb(t, bst.Current(), 24, 0.1))
	if err := p.SyncNow(context.Background()); err == nil {
		t.Fatal("corrupted transfer synced cleanly")
	}
	if p.TornRejected() == 0 {
		t.Fatal("torn transfer not counted")
	}
	if rst.Current() != served {
		t.Fatal("serving snapshot disturbed by rejected transfer")
	}

	// Heal the transport: the next sync recovers with a forced full pull
	// and converges.
	ft.CorruptProb = 0
	if err := p.SyncNow(context.Background()); err != nil {
		t.Fatalf("recovery sync: %v", err)
	}
	if Fingerprint(rst.Current()) != Fingerprint(bst.Current()) {
		t.Fatal("replica did not converge after recovery")
	}
	if p.ConsecutiveFailures() != 0 {
		t.Fatal("failure counter not reset after recovery")
	}
}

func TestPullerHealthzAndMetrics(t *testing.T) {
	bst := server.NewStore(nil)
	bst.Publish(rawSnapshot(t, 16, 25))
	// The builder as srserve wires it: the publisher is the server's
	// SyncHandler, so its counters ride the builder's /metrics.
	srv := httptest.NewServer(server.New(bst, server.Config{SyncHandler: NewPublisher(bst, 8)}).Handler())
	defer srv.Close()

	p := &Puller{
		Builder:         srv.URL,
		Store:           server.NewStore(nil),
		Interval:        time.Second,
		StalenessBudget: time.Hour,
	}
	if err := p.SyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := p.Healthz()
	if h["version"] != bst.Current().Version() {
		t.Fatalf("healthz version = %v", h["version"])
	}
	if h["within_budget"] != true {
		t.Fatalf("healthz within_budget = %v", h["within_budget"])
	}
	var sb strings.Builder
	p.WriteMetricsText(&sb)
	out := sb.String()
	for _, want := range []string{
		"srserve_replica_lag_seconds ",
		"srserve_replica_version 1\n",
		"srserve_replica_sync_failures 0\n",
		"srserve_replica_bytes_transferred ",
		"srserve_replica_syncs{encoding=\"full\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE srserve_replica_served_total counter\n",
		"srserve_replica_served_total{kind=\"full\"} 1\n",
		"srserve_replica_served_total{kind=\"delta\"} 0\n",
		"srserve_replica_served_total{kind=\"not_modified\"} 0\n",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("builder /metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestReplicaServerIntegration wires a Puller into a real server.Server
// as Config.Replica and checks the degradation ladder end to end: fresh
// replica healthy, stale replica serves flagged data with a degraded
// /healthz.
func TestReplicaServerIntegration(t *testing.T) {
	bst := server.NewStore(nil)
	bst.Publish(rawSnapshot(t, 16, 26))
	bsrv, _ := builderServer(t, bst)

	rst := server.NewStore(nil)
	p := &Puller{Builder: bsrv.URL, Store: rst, Interval: time.Second, StalenessBudget: 50 * time.Millisecond}
	if err := p.SyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	rsrv := server.New(rst, server.Config{StalenessBudget: 50 * time.Millisecond, Replica: p})
	ts := httptest.NewServer(rsrv.Handler())
	defer ts.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh replica /healthz = %d", resp.StatusCode)
	}
	if resp := get("/v1/snapshot"); resp.Header.Get("X-Snapshot-Stale") != "" {
		t.Fatal("fresh replica flagged stale")
	}

	// Let the sync age past the budget without builder contact.
	time.Sleep(80 * time.Millisecond)
	if resp := get("/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stale replica /healthz = %d, want 503", resp.StatusCode)
	}
	resp := get("/v1/snapshot")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale replica stopped serving data: %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Snapshot-Stale") == "" {
		t.Fatal("stale replica served data unflagged")
	}
}
