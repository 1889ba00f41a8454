package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sourcerank/internal/durable"
	"sourcerank/internal/server"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// stateBytes is a base-less frame's encoding with the parent field
// zeroed. Parent records *local* publish lineage — a replica that skipped
// versions while syncing has a different (truthful) parent than the
// builder — so byte-identity of transferred state is judged on
// everything else: version, build time, corpus, labels, page counts,
// and every score bit.
func stateBytes(snap *server.Snapshot) []byte {
	out := fullFrame(snap)
	for i := 13; i < 21; i++ { // after magic, wire version and version
		out[i] = 0
	}
	return out
}

// TestReplicaFleetChaos drives a builder plus three replicas through
// injected connection resets, truncated bodies, bit-flipped frames, a
// builder outage longer than the staleness budget, and a builder
// restart that loses the publisher's delta history — asserting the two
// fleet invariants end to end:
//
//  1. No replica ever serves a torn snapshot: every (version,
//     fingerprint) a replica serves matches what the builder published
//     under that version.
//  2. No replica exceeds its staleness budget unflagged: once sync
//     contact ages past the budget, /healthz is degraded (503 with lag
//     detail) and data responses carry X-Snapshot-Stale.
//
// It finishes by proving a delta-synced replica's state is
// byte-identical to an explicit full pull.
func TestReplicaFleetChaos(t *testing.T) {
	const (
		nReplicas = 3
		sources   = 80
		budget    = 500 * time.Millisecond
	)

	// --- builder ---
	bst := server.NewStore(nil)
	var fpMu sync.Mutex
	fps := map[uint64]uint64{}
	recordFP := func() {
		cur := bst.Current()
		fpMu.Lock()
		fps[cur.Version()] = Fingerprint(cur)
		fpMu.Unlock()
	}
	bst.Publish(rawSnapshot(t, sources, 31))
	recordFP()

	var pub atomic.Pointer[Publisher]
	pub.Store(NewPublisher(bst, 4))
	var down atomic.Bool
	bsrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			// Builder killed: tear the connection down without a
			// response, like a crashed process's RSTs.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("test server does not support hijack")
				return
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				_ = conn.Close()
			}
			return
		}
		pub.Load().ServeHTTP(w, r)
	}))
	defer bsrv.Close()

	// --- replicas ---
	type replica struct {
		store *server.Store
		p     *Puller
		ft    *FlakyTransport
		ts    *httptest.Server
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel() // stop pullers before the deferred server closes

	reps := make([]*replica, nReplicas)
	for i := range reps {
		ft := NewFlakyTransport(http.DefaultTransport, int64(1000+i))
		ft.SetProbs(0.15, 0.12, 0.12)
		rst := server.NewStore(nil)
		p := &Puller{
			Builder:         bsrv.URL,
			Store:           rst,
			Interval:        15 * time.Millisecond,
			Timeout:         2 * time.Second,
			MaxBackoff:      80 * time.Millisecond,
			StalenessBudget: budget,
			Client:          &http.Client{Transport: ft},
		}
		rsrv := server.New(rst, server.Config{StalenessBudget: budget, Replica: p})
		ts := httptest.NewServer(rsrv.Handler())
		defer ts.Close()
		reps[i] = &replica{store: rst, p: p, ft: ft, ts: ts}
		wg.Add(1)
		go func() { defer wg.Done(); p.Run(ctx) }()
	}

	// --- invariant monitor: runs across every phase ---
	// Torn check: a replica's served (version, fingerprint) must always
	// match the builder's publish of that version. Staleness check: a
	// data response may omit X-Snapshot-Stale only if sync contact was
	// within budget at some point during the request.
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{Timeout: 2 * time.Second}
		for ctx.Err() == nil {
			for _, rep := range reps {
				if cur := rep.store.Current(); cur != nil {
					fpMu.Lock()
					want, known := fps[cur.Version()]
					fpMu.Unlock()
					if !known {
						t.Errorf("replica serves version %d the builder never published", cur.Version())
					} else if got := Fingerprint(cur); got != want {
						t.Errorf("TORN SNAPSHOT SERVED: version %d fingerprint %#x, builder published %#x", cur.Version(), got, want)
					}
				}
				ageBefore := rep.p.SyncAge()
				resp, err := client.Get(rep.ts.URL + "/v1/snapshot")
				if err != nil {
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				ageAfter := rep.p.SyncAge()
				// ageAfter >= ageBefore means no sync landed during the
				// request, so the handler saw an age of at least
				// ageBefore; past the budget it must have flagged.
				if resp.StatusCode == http.StatusOK &&
					ageBefore > budget && ageAfter >= ageBefore &&
					resp.Header.Get("X-Snapshot-Stale") == "" {
					t.Errorf("UNFLAGGED STALENESS: served 200 without X-Snapshot-Stale at sync age %v (budget %v)", ageBefore, budget)
				}
			}
			select {
			case <-ctx.Done():
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()

	// --- phase A: publish churn under armed faults ---
	for i := 0; i < 20; i++ {
		time.Sleep(40 * time.Millisecond)
		bst.Publish(perturb(t, bst.Current(), int64(100+i), 0.1))
		recordFP()
	}

	// --- phase B: builder killed past the staleness budget ---
	down.Store(true)
	time.Sleep(budget + 300*time.Millisecond)
	for i, rep := range reps {
		resp, err := http.Get(rep.ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("replica %d healthz: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("replica %d healthz = %d past budget, want 503 (body %s)", i, resp.StatusCode, body)
		}
		var h struct {
			Status       string  `json:"status"`
			StaleSeconds float64 `json:"stale_seconds"`
			Replica      struct {
				LagSeconds float64 `json:"lag_seconds"`
			} `json:"replica"`
		}
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("replica %d healthz body: %v", i, err)
		}
		if h.Status != "degraded" || h.StaleSeconds <= budget.Seconds() || h.Replica.LagSeconds <= 0 {
			t.Fatalf("replica %d degraded healthz = %s", i, body)
		}
		// Data still serves, flagged.
		resp, err = http.Get(rep.ts.URL + "/v1/snapshot")
		if err != nil {
			t.Fatalf("replica %d snapshot: %v", i, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replica %d stopped serving during outage: %d", i, resp.StatusCode)
		}
		if resp.Header.Get("X-Snapshot-Stale") == "" {
			t.Fatalf("replica %d served unflagged stale data during outage", i)
		}
	}

	// --- phase C: builder restarts with a fresh publisher (delta ring
	// lost); replica 0's link corrupts every frame for a window, so its
	// rejections are deterministic, then all faults heal ---
	pub.Store(NewPublisher(bst, 4))
	reps[0].ft.SetProbs(0, 0, 1)
	reps[1].ft.SetProbs(0, 0, 0)
	reps[2].ft.SetProbs(0, 0, 0)
	down.Store(false)
	bst.Publish(perturb(t, bst.Current(), 777, 0.1))
	recordFP()
	torn0 := reps[0].p.TornRejected()
	waitFor(t, 5*time.Second, "replica 0 to reject corrupted frames", func() bool {
		return reps[0].p.TornRejected() > torn0
	})
	reps[0].ft.SetProbs(0, 0, 0)

	latest := func() uint64 { return bst.Current().Version() }
	converged := func() bool {
		for _, rep := range reps {
			if rep.p.Version() != latest() {
				return false
			}
		}
		return true
	}
	waitFor(t, 10*time.Second, "fleet to converge after restart", converged)

	// One more publish now that everyone is current: each replica must
	// take the delta path and land byte-identical to a full pull.
	deltasBefore := make([]uint64, nReplicas)
	for i, rep := range reps {
		deltasBefore[i] = rep.p.DeltaSyncs()
	}
	bst.Publish(perturb(t, bst.Current(), 888, 0.1))
	recordFP()
	waitFor(t, 10*time.Second, "fleet to converge on the final delta", converged)
	for i, rep := range reps {
		if rep.p.DeltaSyncs() <= deltasBefore[i] {
			t.Errorf("replica %d did not delta-sync the final publish (deltas %d)", i, rep.p.DeltaSyncs())
		}
	}

	// Byte-identity: an explicit full pull decodes to exactly the state
	// every (delta-synced) replica serves.
	resp, err := http.Get(bsrv.URL + "/v1/replica/snapshot?full=1")
	if err != nil {
		t.Fatal(err)
	}
	framed, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("full pull: status %d, err %v", resp.StatusCode, err)
	}
	payload, err := durable.Verify(framed)
	if err != nil {
		t.Fatalf("full pull failed verification: %v", err)
	}
	f, pulled, err := decodeApply(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := stateBytes(publishAt(t, pulled, f.version))
	for i, rep := range reps {
		if got := stateBytes(rep.store.Current()); string(got) != string(want) {
			t.Errorf("replica %d state is not byte-identical to a full pull (version %d vs %d)", i, rep.store.Current().Version(), f.version)
		}
	}

	// Fault accounting: the run must actually have exercised every
	// injected failure mode and both transfer encodings.
	var resets, truncations, corruptions int
	var fulls, deltas, torn uint64
	for _, rep := range reps {
		r, tr, c := rep.ft.Counts()
		resets += r
		truncations += tr
		corruptions += c
		fulls += rep.p.FullSyncs()
		deltas += rep.p.DeltaSyncs()
		torn += rep.p.TornRejected()
	}
	if resets == 0 || truncations == 0 || corruptions == 0 {
		t.Errorf("fault injection did not fire: resets=%d truncations=%d corruptions=%d", resets, truncations, corruptions)
	}
	if fulls < nReplicas {
		t.Errorf("full syncs = %d, want at least one per replica", fulls)
	}
	if deltas == 0 {
		t.Error("no delta syncs happened")
	}
	if torn == 0 {
		t.Error("no torn transfers were rejected")
	}
	t.Logf("chaos run: %d resets, %d truncations, %d corruptions injected; %d full syncs, %d delta syncs, %d torn transfers rejected, %d versions published",
		resets, truncations, corruptions, fulls, deltas, torn, latest())
}

// TestPublisherBuilderRestartLosesRingServesFull pins the restart
// behavior the chaos test relies on: a fresh publisher over the same
// store answers an old If-None-Match with a full frame (no delta base),
// not an error.
func TestPublisherBuilderRestartLosesRingServesFull(t *testing.T) {
	bst := server.NewStore(nil)
	bst.Publish(rawSnapshot(t, 24, 41))
	v1 := bst.Current().Version()
	bst.Publish(perturb(t, bst.Current(), 42, 0.1))

	pub := NewPublisher(bst, 4) // fresh: never saw v1
	req := httptest.NewRequest(http.MethodGet, "/v1/replica/snapshot", nil)
	req.Header.Set("If-None-Match", fmt.Sprintf("%q", fmt.Sprintf("v%d", v1)))
	rec := httptest.NewRecorder()
	pub.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if enc := rec.Header().Get("X-Replica-Encoding"); enc != "full" {
		t.Fatalf("encoding %q, want full (delta ring was lost)", enc)
	}
	if _, err := durable.Verify(rec.Body.Bytes()); err != nil {
		t.Fatalf("restarted publisher served an unverifiable frame: %v", err)
	}
}
