package server

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/source"
	"sourcerank/internal/throttle"
)

// perturb clones the page graph and re-adds existing links picked at
// random: page-level link churn (a re-crawl seeing the same links again,
// spammers stuffing duplicate links) that the source-level consensus
// aggregation dedupes away. The derived source matrix is unchanged, so
// the previous publish's scores are already the new fixed point — the
// refresh case warm starting is built for. Churn that alters the
// consensus counts themselves shifts the fixed point along slowly-mixing
// directions and erodes the gain; the benchmark's delta_refresh drift
// class measures that scenario instead of a test asserting it.
func perturb(t *testing.T, pg *pagegraph.Graph, seed uint64, links int) *pagegraph.Graph {
	t.Helper()
	out := pg.Clone()
	rng := gen.NewRNG(seed)
	n := out.NumPages()
	for i := 0; i < links; {
		p := pagegraph.PageID(rng.Intn(n))
		outs := out.OutLinks(p)
		if len(outs) == 0 {
			continue
		}
		out.AddLink(p, outs[rng.Intn(len(outs))])
		i++
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	return out
}

// testCorpus derives the builder's view of pg: a freshly built source
// graph, whose arrays no earlier build has seen.
func testCorpus(t *testing.T, pg *pagegraph.Graph) Corpus {
	t.Helper()
	sg, err := source.Build(pg, source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return Corpus{Pages: pg, Source: sg}
}

// coldKappa is the κ reference that shares no selection code with the
// builder: a cold walk thresholded by throttle.TopK's full sort.
func coldKappa(t *testing.T, c Corpus, spam []int32) []float64 {
	t.Helper()
	prox, _, err := throttle.SpamProximity(c.Source.Structure(), spam, throttle.ProximityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return throttle.TopK(prox, throttle.DefaultTopK(len(prox)))
}

// TestWarmRefreshFewerIterations: a builder's second build, over a graph
// with ~4% of its page links churned (duplicates of existing links —
// absorbed by consensus weighting), starts every algorithm from the
// first build's vectors and must converge each in at most the cold
// iteration count — the SRSR solve in strictly fewer — while assigning
// the cold κ bit for bit and matching cold ranks within solver tolerance.
func TestWarmRefreshFewerIterations(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	b := &Builder{Config: BuildConfig{Name: ds.Name}}
	if _, _, err := b.Build(testCorpus(t, ds.Pages), ds.SpamSources); err != nil {
		t.Fatal(err)
	}

	drifted := testCorpus(t, perturb(t, ds.Pages, 99, int(ds.Pages.NumLinks()/25)))
	cold, err := BuildSnapshotFromSourceGraph(drifted.Pages, drifted.Source, ds.SpamSources, b.Config)
	if err != nil {
		t.Fatal(err)
	}
	warm, info, err := b.Build(drifted, ds.SpamSources)
	if err != nil {
		t.Fatal(err)
	}
	if info.SolveSkipped || info.PageRankSkipped || info.TrustRankSkipped {
		t.Fatalf("a new source graph skipped solves: %+v", info)
	}
	if !slices.Equal(b.Kappa(), coldKappa(t, drifted, ds.SpamSources)) {
		t.Error("warm κ differs from throttle.TopK of a cold walk")
	}
	for _, algo := range cold.Algos() {
		ci, wi := cold.Set(algo).Stats().Iterations, warm.Set(algo).Stats().Iterations
		if !warm.Set(algo).WarmStarted() {
			t.Errorf("%s: second build not marked warm-started", algo)
		}
		if cold.Set(algo).WarmStarted() {
			t.Errorf("%s: zero-state build marked warm-started", algo)
		}
		if wi > ci {
			t.Errorf("%s: warm solve took %d iterations, cold %d", algo, wi, ci)
		}
		if d := linalg.L2Distance(warm.Set(algo).ScoresView(), cold.Set(algo).ScoresView()); d > 1e-7 {
			t.Errorf("%s: warm ranks differ from cold by %g", algo, d)
		}
	}
	if wi, ci := warm.Set(AlgoSRSR).Stats().Iterations, cold.Set(AlgoSRSR).Stats().Iterations; wi >= ci {
		t.Errorf("srsr: warm solve took %d iterations, cold %d — no measurable saving", wi, ci)
	}
}

// TestBuilderCarriesUnchangedBuild: the same corpus and labels again cost
// zero iterations — SRSR passes its residual probe, both baselines are
// carried — and every score vector is the previous snapshot's very
// array, which is what the publish and sync carry key on. The zero-state
// build itself is BuildSnapshot bit for bit.
func TestBuilderCarriesUnchangedBuild(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := testCorpus(t, ds.Pages)
	b := &Builder{Config: BuildConfig{Name: ds.Name}}
	first, info, err := b.Build(c, ds.SpamSources)
	if err != nil {
		t.Fatal(err)
	}
	if info.SolveSkipped || !info.ProximityCold || info.PageRankSkipped || info.TrustRankSkipped {
		t.Fatalf("zero-state build claimed history: %+v", info)
	}
	cold, err := BuildSnapshot(ds.Pages, ds.SpamSources, b.Config)
	if err != nil {
		t.Fatal(err)
	}
	second, info, err := b.Build(c, ds.SpamSources)
	if err != nil {
		t.Fatal(err)
	}
	if !info.SolveSkipped || info.KappaChanged != 0 || !info.PageRankSkipped || !info.TrustRankSkipped {
		t.Fatalf("unchanged build ran solves: %+v", info)
	}
	for _, algo := range first.Algos() {
		a, z := first.Set(algo).ScoresView(), second.Set(algo).ScoresView()
		if !slices.Equal(a, cold.Set(algo).ScoresView()) {
			t.Errorf("%s: zero-state build differs from BuildSnapshot", algo)
		}
		if !SameArray(a, z) {
			t.Errorf("%s: unchanged build did not carry the score vector", algo)
		}
		if !second.Set(algo).WarmStarted() {
			t.Errorf("%s: carried set not marked warm-started", algo)
		}
		if st := second.Set(algo).Stats(); st.Iterations != 0 || !st.Converged {
			t.Errorf("%s: unchanged build reports %+v, want zero iterations, converged", algo, st)
		}
	}
}

// TestBuilderBaselinesFollowSourceArrays: the baselines carry exactly
// while the corpus's Source.Counts keeps the RowPtr and Cols they were
// solved over. The same Source twice carries both; a rewired Source over
// as many sources has new arrays, re-solves both to the cold build's
// fixed points, and is then carried itself.
func TestBuilderBaselinesFollowSourceArrays(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := testCorpus(t, ds.Pages)
	rewired := ds.Pages.Clone()
	from := rewired.PagesOf(0)[0]
	linked, _ := c.Source.Counts.Row(0)
	for q := 0; q < rewired.NumPages(); q++ {
		if !slices.Contains(linked, int32(rewired.SourceOf(pagegraph.PageID(q)))) {
			rewired.AddLink(from, pagegraph.PageID(q))
			break
		}
	}
	r := testCorpus(t, rewired)
	if r.Source.NumSources() != c.Source.NumSources() || r.Source.NumEdges != c.Source.NumEdges+1 {
		t.Fatalf("rewire: %d sources, %d edges; want %d, %d",
			r.Source.NumSources(), r.Source.NumEdges, c.Source.NumSources(), c.Source.NumEdges+1)
	}
	b := &Builder{}
	var prev *Snapshot
	for i, step := range []struct {
		c       Corpus
		carried bool
	}{{c, false}, {c, true}, {r, false}, {r, true}} {
		snap, info, err := b.Build(step.c, ds.SpamSources)
		if err != nil {
			t.Fatal(err)
		}
		if info.PageRankSkipped != step.carried || info.TrustRankSkipped != step.carried {
			t.Fatalf("build %d: baselines skipped %v/%v, want %v", i, info.PageRankSkipped, info.TrustRankSkipped, step.carried)
		}
		cold, err := BuildSnapshotFromSourceGraph(step.c.Pages, step.c.Source, ds.SpamSources, BuildConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algo{AlgoPageRank, AlgoTrustRank} {
			got := snap.Set(algo).ScoresView()
			if step.carried && !SameArray(got, prev.Set(algo).ScoresView()) {
				t.Errorf("build %d: %s carried but not the previous array", i, algo)
			}
			if d := linalg.L2Distance(got, cold.Set(algo).ScoresView()); d > 1e-7 {
				t.Errorf("build %d: %s differs from cold by %g", i, algo, d)
			}
		}
		prev = snap
	}
}

// TestBuilderLabelChange: over an unchanged graph a changed label set
// re-walks the proximity and re-solves SRSR warm — κ equal to a cold
// build's bit for bit — while PageRank is carried and TrustRank is
// carried iff the labels left its trusted seeds alone.
func TestBuilderLabelChange(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := testCorpus(t, ds.Pages)
	b := &Builder{}
	if _, _, err := b.Build(c, ds.SpamSources); err != nil {
		t.Fatal(err)
	}
	trusted := TrustedSeeds(c.Source, ds.SpamSources)
	for _, tc := range []struct {
		name       string
		spam       []int32
		trustMoved bool
	}{
		{"half the labels", ds.SpamSources[:len(ds.SpamSources)/2], false},
		{"a trusted seed labelled spam", append(slices.Clone(ds.SpamSources), trusted[0]), true},
	} {
		snap, info, err := b.Build(c, tc.spam)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if info.SolveSkipped || !info.PageRankSkipped || info.TrustRankSkipped == tc.trustMoved {
			t.Fatalf("%s: %+v", tc.name, info)
		}
		if !slices.Equal(b.Kappa(), coldKappa(t, c, tc.spam)) {
			t.Fatalf("%s: κ differs from throttle.TopK of a cold walk", tc.name)
		}
		cold, err := BuildSnapshotFromSourceGraph(c.Pages, c.Source, tc.spam, BuildConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range cold.Algos() {
			if d := linalg.L2Distance(snap.Set(algo).ScoresView(), cold.Set(algo).ScoresView()); d > 1e-7 {
				t.Errorf("%s: %s differs from cold by %g", tc.name, algo, d)
			}
		}
		if snap.Corpus().SpamLabeled != len(tc.spam) {
			t.Errorf("%s: snapshot reports %d labels, want %d", tc.name, snap.Corpus().SpamLabeled, len(tc.spam))
		}
	}
}

// TestWarmStartShapeChangeFallsBack: when the source count changes —
// grows, then shrinks back — the retained vectors no longer line up with
// the index space; every solve starts from them padded or truncated (or
// cold, where that degenerates) and still lands on the cold build's
// fixed point and the cold κ.
func TestWarmStartShapeChangeFallsBack(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Adding a source changes the shape of every score vector.
	grown := ds.Pages.Clone()
	sid := grown.AddSource("late-arrival.example")
	p := grown.AddPage(sid)
	grown.AddLink(p, 0)
	if err := grown.Validate(); err != nil {
		t.Fatal(err)
	}

	b := &Builder{}
	for ver, pg := range []*pagegraph.Graph{ds.Pages, grown, ds.Pages} {
		c := testCorpus(t, pg)
		got, info, err := b.Build(c, ds.SpamSources)
		if err != nil {
			t.Fatal(err)
		}
		if ver > 0 && (info.SolveSkipped || info.PageRankSkipped || info.TrustRankSkipped) {
			t.Fatalf("build %d: shape change skipped solves: %+v", ver, info)
		}
		cold, err := BuildSnapshotFromSourceGraph(pg, c.Source, ds.SpamSources, BuildConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if got.NumSources() != pg.NumSources() {
			t.Fatalf("build %d: %d sources, want %d", ver, got.NumSources(), pg.NumSources())
		}
		if !slices.Equal(b.Kappa(), coldKappa(t, c, ds.SpamSources)) {
			t.Fatalf("build %d: κ differs from throttle.TopK of a cold walk", ver)
		}
		for _, algo := range cold.Algos() {
			if d := linalg.L2Distance(got.Set(algo).ScoresView(), cold.Set(algo).ScoresView()); d > 1e-7 {
				t.Errorf("build %d: %s differs from cold by %g", ver, algo, d)
			}
		}
	}
}

// TestRefresherRetainsWarmState: a refresher whose build closes over one
// Builder — the way srserve wires it — pays the cold solve once: every
// later cycle on unchanged inputs publishes carried vectors.
func TestRefresherRetainsWarmState(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := testCorpus(t, ds.Pages)
	b := &Builder{Config: BuildConfig{Name: ds.Name}}
	initial, _, err := b.Build(c, ds.SpamSources)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(initial)
	ref := &Refresher{
		Store: store,
		Build: func(context.Context) (*Snapshot, error) {
			snap, _, err := b.Build(c, ds.SpamSources)
			return snap, err
		},
	}
	for i := 0; i < 2; i++ {
		if err := ref.RefreshNow(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	cur := store.Current()
	if cur.Version() != 3 {
		t.Fatalf("store at v%d, want v3", cur.Version())
	}
	if it := cur.Set(AlgoSRSR).Stats().Iterations; it != 0 {
		t.Errorf("refresh on an unchanged corpus iterated %d times", it)
	}
	for _, algo := range initial.Algos() {
		if !SameArray(initial.Set(algo).ScoresView(), cur.Set(algo).ScoresView()) {
			t.Errorf("%s: refresh did not carry the initial build's vector", algo)
		}
	}
	if reused, _ := store.PublishSets(); reused != 2*uint64(len(initial.Algos())) {
		t.Errorf("publishes reused %d sets, want %d", reused, 2*len(initial.Algos()))
	}
}

// TestRefresherKeepsServingOverNonFiniteExtra: a build whose Extra vector
// holds a NaN is refused by NewSnapshot; the refresher counts the failure
// (on /metrics too), returns an error wrapping linalg.ErrNonFinite, and
// the store keeps serving the previous version.
func TestRefresherKeepsServingOverNonFiniteExtra(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := testCorpus(t, ds.Pages)
	extra := make(linalg.Vector, ds.Pages.NumSources())
	extra.Fill(1 / float64(len(extra)))
	b := &Builder{Config: BuildConfig{Name: ds.Name, Extra: map[Algo]linalg.Vector{"external": extra}}}
	served, _, err := b.Build(c, ds.SpamSources)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(served)
	ref := &Refresher{
		Store: store,
		Build: func(context.Context) (*Snapshot, error) {
			snap, _, err := b.Build(c, ds.SpamSources)
			return snap, err
		},
	}
	poisoned := slices.Clone(extra)
	poisoned[3] = math.NaN()
	b.Config.Extra = map[Algo]linalg.Vector{"external": poisoned}
	err = ref.RefreshNow(context.Background())
	if !errors.Is(err, linalg.ErrNonFinite) || !strings.Contains(err.Error(), "external score of source 3 is NaN") {
		t.Fatalf("refresh over a NaN extra vector = %v, want linalg.ErrNonFinite naming the source", err)
	}
	if store.Current() != served || served.Version() != 1 {
		t.Fatalf("store serves v%d, want the previous v1", store.Current().Version())
	}
	rec := httptest.NewRecorder()
	New(store, Config{Refresher: ref}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if want := "srserve_refresh_consecutive_failures 1\n"; !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("metrics missing %q:\n%s", want, rec.Body)
	}
}

// TestSolverMetricsExposition: the /metrics registry emits the solver
// series for the served snapshot, warm_start following the builder's
// state: 0 on its first build, 1 after.
func TestSolverMetricsExposition(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := testCorpus(t, ds.Pages)
	b := &Builder{Config: BuildConfig{Name: ds.Name}}
	snap, _, err := b.Build(c, ds.SpamSources)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := b.Build(c, ds.SpamSources)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	NewMetrics("topk").WriteSolverText(&sb, again)
	if want := `srserve_solver_warm_start{algo="srsr"} 1`; !strings.Contains(sb.String(), want) {
		t.Errorf("second build's metrics missing %q", want)
	}
	sb.Reset()
	NewMetrics("topk").WriteSolverText(&sb, snap)
	out := sb.String()
	for _, want := range []string{
		`srserve_solver_iterations{algo="srsr"} `,
		`srserve_solver_residual{algo="pagerank"} `,
		`srserve_solver_seconds{algo="trustrank"} `,
		`srserve_solver_warm_start{algo="srsr"} 0`,
		`srserve_solver_rowsums{impl="` + linalg.RowSumsImpl() + `"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("solver metrics missing %q in:\n%s", want, out)
		}
	}
	// Nil snapshot writes nothing (pre-first-publish /metrics).
	sb.Reset()
	NewMetrics("topk").WriteSolverText(&sb, nil)
	if sb.Len() != 0 {
		t.Errorf("nil snapshot wrote %q", sb.String())
	}
}

// TestHostileCorporaEndToEnd takes the corpora at the pipeline's edges
// through BuildSnapshot, NewStore and every rendered body at one and two
// workers: one source with links and with none, five sources that are
// all dangling (n = 1 and all-tie rankings), and every source labeled
// spam (κ ≡ 1 everywhere), which leaves TrustRank out because no source
// is left to trust. A corpus of no sources is source.ErrEmpty and
// yields no snapshot to publish.
func TestHostileCorporaEndToEnd(t *testing.T) {
	corpus := func(sources, pages int, links ...[2]pagegraph.PageID) *pagegraph.Graph {
		pg := pagegraph.New()
		for s := 0; s < sources; s++ {
			src := pg.AddSource("<h" + strings.Repeat("&", s) + ">.example")
			for p := 0; p < pages; p++ {
				pg.AddPage(src)
			}
		}
		for _, l := range links {
			pg.AddLink(l[0], l[1])
		}
		return pg
	}
	ring := corpus(6, 1, [2]pagegraph.PageID{0, 1}, [2]pagegraph.PageID{1, 2}, [2]pagegraph.PageID{2, 3},
		[2]pagegraph.PageID{3, 4}, [2]pagegraph.PageID{4, 5}, [2]pagegraph.PageID{5, 0})
	baselines, allSpam := []Algo{AlgoPageRank, AlgoTrustRank}, []Algo{AlgoPageRank, AlgoSRSR}
	for _, tc := range []struct {
		name  string
		pg    *pagegraph.Graph
		spam  []int32
		algos []Algo
	}{
		{"one source, no links", corpus(1, 1), nil, baselines},
		{"one source, links", corpus(1, 3, [2]pagegraph.PageID{0, 1}, [2]pagegraph.PageID{1, 2}, [2]pagegraph.PageID{2, 0}), nil, baselines},
		{"five dangling sources", corpus(5, 2), nil, baselines},
		{"one source, spam", corpus(1, 1), []int32{0}, allSpam},
		{"six-source ring, all spam", ring, []int32{0, 1, 2, 3, 4, 5}, allSpam},
	} {
		for _, workers := range []int{1, 2} {
			snap, err := BuildSnapshot(tc.pg, tc.spam, BuildConfig{Workers: workers, Name: tc.name})
			if err != nil {
				t.Fatalf("%s, %d workers: %v", tc.name, workers, err)
			}
			if !slices.Equal(snap.Algos(), tc.algos) {
				t.Fatalf("%s, %d workers: algorithms %v, want %v", tc.name, workers, snap.Algos(), tc.algos)
			}
			assertRenderedEqualsOracle(t, NewStore(snap))
		}
	}
	for _, workers := range []int{1, 2} {
		if snap, err := BuildSnapshot(corpus(0, 0), nil, BuildConfig{Workers: workers}); !errors.Is(err, source.ErrEmpty) || snap != nil {
			t.Fatalf("no sources, %d workers: snapshot %v, error %v; want none and %v", workers, snap, err, source.ErrEmpty)
		}
	}
}
