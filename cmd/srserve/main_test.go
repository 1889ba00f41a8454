package main

import (
	"bytes"
	"context"
	"errors"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"sourcerank/internal/core"
	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/replica"
	"sourcerank/internal/server"
	"sourcerank/internal/throttle"
)

func writeLabels(t *testing.T, path, body string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBuildLine: each path that can settle SRSR's κ reads as itself in the
// build's log line, with the numbers that path produced, and each solve
// that ran — SRSR's and each re-solved baseline's — ends it with its
// iterations.
func TestBuildLine(t *testing.T) {
	snapWith := func(algos ...server.Algo) *server.Snapshot {
		sets := map[server.Algo]*server.ScoreSet{}
		for _, a := range algos {
			sets[a] = server.NewScoreSet(linalg.Vector{0.5, 0.5}, linalg.IterStats{Converged: true})
		}
		snap, err := server.NewSnapshot(server.CorpusInfo{}, []string{"a", "b"}, []int{1, 1}, 1, sets, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	srsr := snapWith(server.AlgoSRSR, server.AlgoPageRank, server.AlgoTrustRank)
	plain := snapWith(server.AlgoPageRank, server.AlgoTrustRank)
	allSpam := snapWith(server.AlgoSRSR, server.AlgoPageRank) // no source left to trust
	solved, err := server.NewSnapshot(server.CorpusInfo{}, []string{"a", "b"}, []int{1, 1}, 1, map[server.Algo]*server.ScoreSet{
		server.AlgoSRSR:      server.NewScoreSet(linalg.Vector{0.5, 0.5}, linalg.IterStats{Iterations: 24, Converged: true}),
		server.AlgoPageRank:  server.NewScoreSet(linalg.Vector{0.5, 0.5}, linalg.IterStats{Converged: true}),
		server.AlgoTrustRank: server.NewScoreSet(linalg.Vector{0.5, 0.5}, linalg.IterStats{Converged: true}),
	}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	baselines := func(pr, tr int) *server.Snapshot {
		snap, err := server.NewSnapshot(server.CorpusInfo{}, []string{"a", "b"}, []int{1, 1}, 1, map[server.Algo]*server.ScoreSet{
			server.AlgoSRSR:      server.NewScoreSet(linalg.Vector{0.5, 0.5}, linalg.IterStats{Iterations: 24, Converged: true}),
			server.AlgoPageRank:  server.NewScoreSet(linalg.Vector{0.5, 0.5}, linalg.IterStats{Iterations: pr, Converged: true}),
			server.AlgoTrustRank: server.NewScoreSet(linalg.Vector{0.5, 0.5}, linalg.IterStats{Iterations: tr, Converged: true}),
		}, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	decided := throttle.Decision{IterStats: linalg.IterStats{Iterations: 52}, Bound: 6e-7}
	for _, tc := range []struct {
		name string
		snap *server.Snapshot
		info server.BuildInfo
		want string
	}{
		{"no labels", plain, server.BuildInfo{}, "build: srsr not computed (no spam labels), 0 κ flips; pagerank re-solved, trustrank re-solved; solves in turn: srsr 0.0 ms, baselines 0.0 ms (srsr set the length)"},
		{"skipped", srsr, server.BuildInfo{RefreshInfo: core.RefreshInfo{SolveSkipped: true}, PageRankSkipped: true, TrustRankSkipped: true},
			"build: srsr solve skipped (graph and labels unchanged), 0 κ flips; pagerank carried, trustrank carried; solves in turn: srsr 0.0 ms, baselines 0.0 ms (srsr set the length)"},
		{"carried", srsr, server.BuildInfo{RefreshInfo: core.RefreshInfo{ProximityCarried: true}, PageRankSkipped: true, TrustRankSkipped: true},
			"build: srsr proximity carried (structure unchanged), 0 κ flips; pagerank carried, trustrank carried; solves in turn: srsr 0.0 ms, baselines 0.0 ms (srsr set the length)"},
		{"decided cold", srsr, server.BuildInfo{RefreshInfo: core.RefreshInfo{ProximityCold: true, Decision: decided, BoundaryGap: 1.34e-6, KappaChanged: 265}},
			"build: srsr proximity decided cold at iteration 52 (gap 1.34e-06 > 2·bound 6e-07), 265 κ flips; pagerank re-solved, trustrank re-solved; solves in turn: srsr 0.0 ms, baselines 0.0 ms (srsr set the length)"},
		{"decided warm", srsr, server.BuildInfo{RefreshInfo: core.RefreshInfo{Decision: decided, BoundaryGap: 1.34e-6, KappaChanged: 3}},
			"build: srsr proximity decided warm at iteration 52 (gap 1.34e-06 > 2·bound 6e-07), 3 κ flips; pagerank re-solved, trustrank re-solved; solves in turn: srsr 0.0 ms, baselines 0.0 ms (srsr set the length)"},
		{"contested", srsr, server.BuildInfo{RefreshInfo: core.RefreshInfo{ProximityCold: true, BoundaryGap: 0, KappaChanged: 4,
			Decision: throttle.Decision{IterStats: linalg.IterStats{Iterations: 77}, Contested: "L1 residual stopped falling at iteration 240"}}},
			"build: srsr proximity contested (L1 residual stopped falling at iteration 240) → cold walk, 77 iterations, boundary gap 0, 4 κ flips; pagerank re-solved, trustrank re-solved; solves in turn: srsr 0.0 ms, baselines 0.0 ms (srsr set the length)"},
		{"at once", srsr, server.BuildInfo{RefreshInfo: core.RefreshInfo{Decision: decided, BoundaryGap: 1.34e-6, KappaChanged: 3},
			SRSRWall: 27140 * time.Microsecond, BaselinesWall: 20 * time.Millisecond, Concurrent: true},
			"build: srsr proximity decided warm at iteration 52 (gap 1.34e-06 > 2·bound 6e-07), 3 κ flips; pagerank re-solved, trustrank re-solved; solves at once: srsr 27.1 ms, baselines 20.0 ms (srsr set the length)"},
		{"baselines longer", srsr, server.BuildInfo{RefreshInfo: core.RefreshInfo{ProximityCarried: true},
			SRSRWall: 3 * time.Millisecond, BaselinesWall: 9500 * time.Microsecond},
			"build: srsr proximity carried (structure unchanged), 0 κ flips; pagerank re-solved, trustrank re-solved; solves in turn: srsr 3.0 ms, baselines 9.5 ms (baselines set the length)"},
		{"one sweep", srsr, server.BuildInfo{RefreshInfo: core.RefreshInfo{Decision: decided, BoundaryGap: 1.34e-6, KappaChanged: 3},
			SRSRWall: 43 * time.Millisecond, BaselinesWall: 31 * time.Millisecond, Concurrent: true, BaselinesSwept: true},
			"build: srsr proximity decided warm at iteration 52 (gap 1.34e-06 > 2·bound 6e-07), 3 κ flips; pagerank re-solved, trustrank re-solved in one sweep; solves at once: srsr 43.0 ms, baselines 31.0 ms (srsr set the length)"},
		{"srsr solved", solved, server.BuildInfo{RefreshInfo: core.RefreshInfo{ProximityCarried: true}, PageRankSkipped: true, TrustRankSkipped: true, SRSRWall: 6400 * time.Microsecond},
			"build: srsr proximity carried (structure unchanged), 0 κ flips; pagerank carried, trustrank carried; solves in turn: srsr 6.4 ms, baselines 0.0 ms (srsr set the length); srsr solved in 24 iterations"},
		{"baselines solved", baselines(37, 41), server.BuildInfo{RefreshInfo: core.RefreshInfo{Decision: decided, BoundaryGap: 1.34e-6, KappaChanged: 3},
			SRSRWall: 21 * time.Millisecond, BaselinesWall: 14 * time.Millisecond, Concurrent: true, BaselinesSwept: true},
			"build: srsr proximity decided warm at iteration 52 (gap 1.34e-06 > 2·bound 6e-07), 3 κ flips; pagerank re-solved, trustrank re-solved in one sweep; solves at once: srsr 21.0 ms, baselines 14.0 ms (srsr set the length); srsr solved in 24 iterations; pagerank solved in 37, trustrank in 41 iterations"},
		{"trustrank solved alone", baselines(37, 41), server.BuildInfo{RefreshInfo: core.RefreshInfo{SolveSkipped: true}, PageRankSkipped: true},
			"build: srsr solve skipped (graph and labels unchanged), 0 κ flips; pagerank carried, trustrank re-solved; solves in turn: srsr 0.0 ms, baselines 0.0 ms (srsr set the length); trustrank solved in 41 iterations"},
		{"pagerank solved alone", baselines(37, 0), server.BuildInfo{RefreshInfo: core.RefreshInfo{SolveSkipped: true}, TrustRankSkipped: true},
			"build: srsr solve skipped (graph and labels unchanged), 0 κ flips; pagerank re-solved, trustrank carried; solves in turn: srsr 0.0 ms, baselines 0.0 ms (srsr set the length); pagerank solved in 37 iterations"},
		{"trustrank left out", allSpam, server.BuildInfo{RefreshInfo: core.RefreshInfo{ProximityCold: true, Decision: decided, BoundaryGap: 1.34e-6, KappaChanged: 2}},
			"build: srsr proximity decided cold at iteration 52 (gap 1.34e-06 > 2·bound 6e-07), 2 κ flips; pagerank re-solved, trustrank left out; solves in turn: srsr 0.0 ms, baselines 0.0 ms (srsr set the length)"},
		{"srsr skipped over solved stats", solved, server.BuildInfo{RefreshInfo: core.RefreshInfo{SolveSkipped: true}, PageRankSkipped: true, TrustRankSkipped: true},
			"build: srsr solve skipped (graph and labels unchanged), 0 κ flips; pagerank carried, trustrank carried; solves in turn: srsr 0.0 ms, baselines 0.0 ms (srsr set the length)"},
	} {
		if got := buildLine(tc.snap, tc.info); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}

// TestReadSpamLabelsCanonical: duplicates and order in the label file
// every build re-reads (gen.ReadSpamLabels, srank's reader too) do not
// reach the builder — the set comes back ascending, each ID once — while
// comments and blank lines are skipped and anything that is not a source
// ID of this corpus is an error.
func TestReadSpamLabelsCanonical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.spam")
	for _, tc := range []struct {
		name, body string
		want       []int32
	}{
		{"sorted", "1\n4\n7\n", []int32{1, 4, 7}},
		{"reordered", "7\n1\n4\n", []int32{1, 4, 7}},
		{"duplicates", "4\n1\n4\n7\n1\n", []int32{1, 4, 7}},
		{"comments and blanks", "# caught 2026-10\n\n  7  \n#4\n1\n\n", []int32{1, 7}},
		{"bounds", "0\n9\n", []int32{0, 9}},
		{"empty", "# nothing yet\n", nil},
	} {
		writeLabels(t, path, tc.body)
		got, err := gen.ReadSpamLabels(path, 10)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
	for _, body := range []string{"10\n", "-1\n", "3\nseven\n", "2 3\n"} {
		writeLabels(t, path, body)
		if got, err := gen.ReadSpamLabels(path, 10); err == nil {
			t.Errorf("%q accepted as %v", body, got)
		}
	}
	if _, err := gen.ReadSpamLabels(filepath.Join(t.TempDir(), "absent"), 10); err == nil {
		t.Error("missing file accepted")
	}
}

// handlerTransport answers a replica's pulls by calling the builder's
// sync handler in process.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

var versionField = regexp.MustCompile(`"version": \d+`)

// topK is the /v1/topk body a store serves for algo, with the one field
// that names the snapshot version blanked.
func topK(t *testing.T, store *server.Store, algo server.Algo) string {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/topk?n=50&algo="+string(algo), nil)
	server.New(store, server.Config{}).Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("topk %s: status %d: %s", algo, rec.Code, rec.Body)
	}
	return versionField.ReplaceAllString(rec.Body.String(), `"version": _`)
}

// TestScoresFileNonFinite: a -scores file holding a NaN fails boot, at
// reading it, with an error naming the algorithm and the source.
func TestScoresFileNonFinite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.vec")
	if err := linalg.WriteVectorFile(path, linalg.Vector{0.5, 0.25, math.NaN(), 0.25}); err != nil {
		t.Fatal(err)
	}
	_, err := loadExtraScores("mymodel=" + path)
	if !errors.Is(err, linalg.ErrNonFinite) || !strings.Contains(err.Error(), "-scores mymodel") || !strings.Contains(err.Error(), "at 2 (NaN)") {
		t.Fatalf("loading a NaN score file = %v, want linalg.ErrNonFinite naming mymodel and source 2", err)
	}
}

// TestRefreshEndToEnd drives the refresh srserve actually runs: newBuild
// over a label file, a store, a Refresher, the replica Publisher every
// builder mounts and one Puller behind it, wired as main wires them.
func TestRefreshEndToEnd(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spamPath := filepath.Join(dir, "corpus.spam")
	labelFile := func(ids []int32) string {
		var sb strings.Builder
		for _, id := range ids {
			sb.WriteString(strconv.Itoa(int(id)))
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	labels := slices.Clone(ds.SpamSources)
	writeLabels(t, spamPath, labelFile(labels))
	// Every build logs its account; the refreshes below are synchronous.
	var logged bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logged)
	lastBuild := func() string {
		t.Helper()
		lines := strings.Split(strings.TrimSpace(logged.String()), "\n")
		logged.Reset()
		if len(lines) != 1 || !strings.Contains(lines[0], "build: ") {
			t.Fatalf("build logged %q, want one build line", lines)
		}
		return lines[0]
	}
	cfg := server.BuildConfig{Name: ds.Name}

	build, err := newBuild(ds.Pages, labels, spamPath, &server.Builder{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if line := lastBuild(); !strings.Contains(line, "proximity decided cold at iteration") || !strings.Contains(line, "pagerank re-solved, trustrank re-solved") {
		t.Errorf("first build logged %q", line)
	}
	store := server.NewStore(first)
	ref := &server.Refresher{Store: store, Build: build, Interval: time.Hour}
	replicaStore := server.NewStore(nil)
	var encodings []string
	puller := &replica.Puller{
		Builder: "http://builder",
		Store:   replicaStore,
		Client:  &http.Client{Transport: handlerTransport{replica.NewPublisher(store, 8)}},
		OnSync:  func(_ uint64, encoding string, _ int) { encodings = append(encodings, encoding) },
	}
	sync := func() {
		t.Helper()
		if err := puller.SyncNow(ctx); err != nil {
			t.Fatal(err)
		}
		if got, want := replica.Fingerprint(replicaStore.Current()), replica.Fingerprint(store.Current()); got != want {
			t.Fatalf("replica fingerprint %x, builder %x", got, want)
		}
	}
	sync()
	algos := first.Algos()
	nAlgos := uint64(len(algos))
	if len(algos) != 3 {
		t.Fatalf("algos %v", algos)
	}

	// (a) Unchanged labels — here re-sorted and duplicated, which the
	// canonical read makes the same set: every set is carried, nothing is
	// rendered again, and the replica gets a delta frame.
	reordered := append(slices.Clone(labels), labels[0])
	slices.Reverse(reordered)
	writeLabels(t, spamPath, labelFile(reordered))
	reused0, rendered0 := store.PublishSets()
	bodies := map[server.Algo]string{}
	for _, a := range algos {
		bodies[a] = topK(t, store, a)
	}
	if err := ref.RefreshNow(ctx); err != nil {
		t.Fatal(err)
	}
	if line := lastBuild(); !strings.Contains(line, "srsr solve skipped") || !strings.Contains(line, "pagerank carried, trustrank carried") {
		t.Errorf("unchanged refresh logged %q", line)
	}
	cur := store.Current()
	if cur.Version() != 2 || cur.Corpus().SpamLabeled != len(labels) {
		t.Fatalf("v%d with %d labels, want v2 with %d", cur.Version(), cur.Corpus().SpamLabeled, len(labels))
	}
	reused, rendered := store.PublishSets()
	if reused-reused0 != nAlgos || rendered != rendered0 {
		t.Fatalf("unchanged refresh: reused +%d rendered +%d, want +%d +0",
			reused-reused0, rendered-rendered0, nAlgos)
	}
	if replica.Fingerprint(cur) != replica.Fingerprint(first) {
		t.Fatal("unchanged refresh moved the fingerprint")
	}
	for _, a := range algos {
		if !server.SameArray(first.Set(a).ScoresView(), cur.Set(a).ScoresView()) {
			t.Errorf("%s: unchanged refresh re-solved", a)
		}
		if topK(t, store, a) != bodies[a] {
			t.Errorf("%s: /v1/topk body changed across an unchanged refresh", a)
		}
	}
	sync()
	if puller.DeltaSyncs() != 1 || puller.FullSyncs() != 1 || encodings[len(encodings)-1] != "delta" {
		t.Fatalf("unchanged refresh synced as %v (delta %d, full %d)", encodings, puller.DeltaSyncs(), puller.FullSyncs())
	}
	// The builder's warm flag crosses the replica wire into the
	// replica's own solver gauges.
	var metrics strings.Builder
	server.NewMetrics("topk").WriteSolverText(&metrics, replicaStore.Current())
	for _, a := range algos {
		if want := `srserve_solver_warm_start{algo="` + string(a) + `"} 1`; !strings.Contains(metrics.String(), want) {
			t.Errorf("replica metrics missing %s", want)
		}
	}

	// (b) One label appended: SRSR re-solves warm onto the cold fixed
	// point (a snapshot does not expose κ; internal/server's
	// TestBuilderLabelChange pins it bitwise for this same builder),
	// PageRank is carried.
	var added int32
	for slices.Contains(labels, added) {
		added++
	}
	labels = append(labels, added)
	slices.Sort(labels)
	writeLabels(t, spamPath, labelFile(labels))
	reused0, _ = store.PublishSets()
	if err := ref.RefreshNow(ctx); err != nil {
		t.Fatal(err)
	}
	line := lastBuild()
	if m := regexp.MustCompile(`, (\d+) κ flips;`).FindStringSubmatch(line); m == nil || m[1] == "0" || !strings.Contains(line, "pagerank carried") {
		t.Errorf("label-change refresh logged %q, want κ flips > 0 and pagerank carried", line)
	}
	cur = store.Current()
	cold, err := server.BuildSnapshot(ds.Pages, labels, server.BuildConfig{Name: ds.Name})
	if err != nil {
		t.Fatal(err)
	}
	srsr := cur.Set(server.AlgoSRSR)
	if !srsr.WarmStarted() || srsr.Stats().Iterations == 0 || !srsr.Stats().Converged {
		t.Errorf("srsr after a label change: %+v, warm=%v", srsr.Stats(), srsr.WarmStarted())
	}
	if cur.KappaTopK() != cold.KappaTopK() {
		t.Errorf("top-k %d, cold %d", cur.KappaTopK(), cold.KappaTopK())
	}
	for _, a := range algos {
		if d := linalg.L2Distance(cur.Set(a).ScoresView(), cold.Set(a).ScoresView()); d > 1e-7 {
			t.Errorf("%s differs from a cold BuildSnapshot by %g", a, d)
		}
	}
	if !server.SameArray(first.Set(server.AlgoPageRank).ScoresView(), cur.Set(server.AlgoPageRank).ScoresView()) {
		t.Error("pagerank re-solved over a label change")
	}
	if reused, _ = store.PublishSets(); reused-reused0 < 1 {
		t.Errorf("label-change refresh reused %d sets, want >= 1", reused-reused0)
	}
	sync()

	// (c) A failed build — a bad label file, which fails before the
	// builder runs — leaves the old snapshot served and backs the
	// refresher off; the next good cycle matches cold. (Once κ is
	// re-assigned, nothing in the SRSR solve can fail.)
	served := store.Current()
	writeLabels(t, spamPath, "999999999\n")
	if err := ref.RefreshNow(ctx); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if store.Current() != served || ref.ConsecutiveFailures() != 1 {
		t.Fatalf("after a failed build: serving v%d (want v%d), %d consecutive failures",
			store.Current().Version(), served.Version(), ref.ConsecutiveFailures())
	}
	labels = labels[:len(labels)/2]
	writeLabels(t, spamPath, labelFile(labels))
	if err := ref.RefreshNow(ctx); err != nil {
		t.Fatal(err)
	}
	cur = store.Current()
	if cold, err = server.BuildSnapshot(ds.Pages, labels, server.BuildConfig{Name: ds.Name}); err != nil {
		t.Fatal(err)
	}
	if ref.ConsecutiveFailures() != 0 || cur.Version() != served.Version()+1 {
		t.Fatalf("recovery: v%d, %d failures", cur.Version(), ref.ConsecutiveFailures())
	}
	for _, a := range algos {
		if d := linalg.L2Distance(cur.Set(a).ScoresView(), cold.Set(a).ScoresView()); d > 1e-7 {
			t.Errorf("after recovery %s differs from a cold BuildSnapshot by %g", a, d)
		}
	}
	if !server.SameArray(first.Set(server.AlgoPageRank).ScoresView(), cur.Set(server.AlgoPageRank).ScoresView()) {
		t.Error("pagerank re-solved after the failed build")
	}
	sync()
}
