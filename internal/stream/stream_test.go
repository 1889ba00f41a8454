package stream

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sourcerank/internal/core"
	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/rankeval"
	"sourcerank/internal/server"
	"sourcerank/internal/source"
	"sourcerank/internal/throttle"
)

// randomCorpus builds a connected-ish random page graph with parallel
// links and self-links already present, so deltas land on a graph that
// exercises every consensus edge case from the start.
func randomCorpus(rng *rand.Rand, sources, pages, links int) *pagegraph.Graph {
	pg := pagegraph.New()
	for s := 0; s < sources; s++ {
		pg.AddSource(fmt.Sprintf("s%03d.example", s))
	}
	for p := 0; p < pages; p++ {
		pg.AddPage(pagegraph.SourceID(rng.Intn(sources)))
	}
	for l := 0; l < links; l++ {
		pg.AddLink(pagegraph.PageID(rng.Intn(pages)), pagegraph.PageID(rng.Intn(pages)))
	}
	return pg
}

// randomDeltas generates one valid batch against the current state of
// pg, covering adds, removes, duplicate edges, self-edges, brand-new
// sources/pages referenced within the same batch, and touches. removed
// tracks pages this batch already edited links away from, so it never
// removes the same physical link twice.
func randomDeltas(rng *rand.Rand, pg *pagegraph.Graph) []Delta {
	var ds []Delta
	pages := pg.NumPages()
	sources := pg.NumSources()
	stagedPages := 0
	removedFrom := map[pagegraph.PageID]bool{}
	n := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		switch k := rng.Intn(10); {
		case k == 0: // new source, with a page and an edge into the old graph
			ds = append(ds, AddSource(fmt.Sprintf("new%d.example", rng.Int31())))
			newPage := pagegraph.PageID(pages + stagedPages)
			ds = append(ds, AddPage(pagegraph.SourceID(sources)))
			sources++
			stagedPages++
			if pages > 0 {
				ds = append(ds, AddEdge(newPage, pagegraph.PageID(rng.Intn(pages))))
				ds = append(ds, AddEdge(pagegraph.PageID(rng.Intn(pages)), newPage))
			}
		case k == 1: // new page in an existing source
			ds = append(ds, AddPage(pagegraph.SourceID(rng.Intn(sources))))
			stagedPages++
		case k <= 4 && pages > 0: // add edge; sometimes duplicated, sometimes a self-edge
			from := pagegraph.PageID(rng.Intn(pages))
			to := pagegraph.PageID(rng.Intn(pages))
			if rng.Intn(5) == 0 {
				to = from
			}
			ds = append(ds, AddEdge(from, to))
			if rng.Intn(4) == 0 {
				ds = append(ds, AddEdge(from, to))
			}
		case k <= 7 && pages > 0: // remove an existing edge
			for tries := 0; tries < 8; tries++ {
				p := pagegraph.PageID(rng.Intn(pages))
				out := pg.OutLinks(p)
				if len(out) == 0 || removedFrom[p] {
					continue
				}
				ds = append(ds, RemoveEdge(p, out[rng.Intn(len(out))]))
				removedFrom[p] = true
				break
			}
		default:
			if pages > 0 {
				ds = append(ds, TouchPage(pagegraph.PageID(rng.Intn(pages))))
			}
		}
	}
	if len(ds) == 0 {
		ds = append(ds, AddSource(fmt.Sprintf("lone%d.example", rng.Int31())))
	}
	return ds
}

func csrEqual(t *testing.T, what string, got, want *linalg.CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.ColsN != want.ColsN {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.ColsN, want.Rows, want.ColsN)
	}
	if !slices.Equal(got.RowPtr, want.RowPtr) {
		t.Fatalf("%s: RowPtr diverged", what)
	}
	if !slices.Equal(got.Cols, want.Cols) {
		t.Fatalf("%s: Cols diverged", what)
	}
	for k := range got.Vals {
		if math.Float64bits(got.Vals[k]) != math.Float64bits(want.Vals[k]) {
			t.Fatalf("%s: Vals[%d] = %v, want %v (bitwise)", what, k, got.Vals[k], want.Vals[k])
		}
	}
}

// assertSameSourceGraph enforces the bitwise half of the equivalence
// contract: the streamed source graph must be indistinguishable from a
// cold re-aggregation of the mutated page graph.
func assertSameSourceGraph(t *testing.T, got, want *source.Graph) {
	t.Helper()
	if !slices.Equal(got.Labels, want.Labels) {
		t.Fatalf("labels diverged: %d vs %d entries", len(got.Labels), len(want.Labels))
	}
	if !slices.Equal(got.PageCount, want.PageCount) {
		t.Fatalf("page counts diverged")
	}
	if got.NumEdges != want.NumEdges {
		t.Fatalf("edge count %d, want %d", got.NumEdges, want.NumEdges)
	}
	csrEqual(t, "Counts", got.Counts, want.Counts)
	csrEqual(t, "T", got.T, want.T)
}

func maxAbsDiff(a, b linalg.Vector) float64 {
	d := 0.0
	for i := range a {
		if x := math.Abs(a[i] - b[i]); x > d {
			d = x
		}
	}
	return d
}

// TestMetamorphicStreamEqualsCold is the core equivalence suite:
// randomized delta sequences (adds, removes, duplicate and self edges,
// new sources and pages referenced within their own batch, touches,
// multiple interleaved batches per refresh) are streamed through the
// pipeline, and after every refresh the streamed state must match a
// cold rebuild over the mutated page graph — bitwise for the source
// graph and κ, within solver tolerance (plus rank-correlation gates)
// for every algorithm's scores.
func TestMetamorphicStreamEqualsCold(t *testing.T) {
	const topK = 5
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pg := randomCorpus(rng, 24, 90, 320)
			spam := []int32{0, 3, 7, 11}
			p, err := NewPipeline(pg, Options{Spam: spam, TopK: topK, Name: "meta"})
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 20; step++ {
				for b := 1 + rng.Intn(3); b > 0; b-- {
					if _, err := p.Apply(randomDeltas(rng, pg)); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				snap, _, err := p.Refresh()
				if err != nil {
					t.Fatalf("step %d: refresh: %v", step, err)
				}
				if err := pg.Validate(); err != nil {
					t.Fatalf("step %d: page graph corrupted: %v", step, err)
				}

				coldSG, err := source.Build(pg, source.Options{})
				if err != nil {
					t.Fatalf("step %d: cold build: %v", step, err)
				}
				assertSameSourceGraph(t, p.Ingestor().Emit(), coldSG)

				coldRes, err := core.Pipeline(coldSG, core.PipelineConfig{
					SpamSeeds: spam, TopK: topK,
				})
				if err != nil {
					t.Fatalf("step %d: cold pipeline: %v", step, err)
				}
				if !slices.Equal(p.Kappa(), coldRes.Kappa) {
					t.Fatalf("step %d: streamed κ diverged from cold rebuild", step)
				}
				// The zero-state pipeline and the stream both select through
				// PatchTopK; throttle.TopK's full sort over a cold walk is the
				// reference that shares none of it.
				prox, _, err := throttle.SpamProximity(coldSG.Structure(), spam, throttle.ProximityOptions{})
				if err != nil {
					t.Fatalf("step %d: cold proximity: %v", step, err)
				}
				if !slices.Equal(p.Kappa(), throttle.TopK(prox, topK)) {
					t.Fatalf("step %d: streamed κ diverged from throttle.TopK of a cold walk", step)
				}

				coldSnap, err := server.BuildSnapshot(pg, spam, server.BuildConfig{TopK: topK, Name: "meta"})
				if err != nil {
					t.Fatalf("step %d: cold snapshot: %v", step, err)
				}
				for _, algo := range coldSnap.Algos() {
					warm := snap.Set(algo)
					if warm == nil {
						t.Fatalf("step %d: streamed snapshot missing %s", step, algo)
					}
					a, b := warm.ScoresView(), coldSnap.Set(algo).ScoresView()
					if len(a) != len(b) {
						t.Fatalf("step %d: %s: %d scores vs cold %d", step, algo, len(a), len(b))
					}
					if d := maxAbsDiff(a, b); d > 1e-6 {
						t.Fatalf("step %d: %s scores diverged by %g", step, algo, d)
					}
					tau, err := rankeval.KendallTau(a, b)
					if err != nil {
						t.Fatal(err)
					}
					if tau < 0.99 {
						t.Fatalf("step %d: %s Kendall τ = %v vs cold rebuild", step, algo, tau)
					}
					ov, err := rankeval.TopKOverlap(a, b, topK)
					if err != nil {
						t.Fatal(err)
					}
					if ov < 0.8 {
						t.Fatalf("step %d: %s top-%d overlap = %v vs cold rebuild", step, algo, topK, ov)
					}
				}
			}
		})
	}
}

// TestApplyRejectsInvalidBatchAtomically drives every rejection class —
// unknown source, unknown page, removing an absent link, removing more
// parallel copies than exist, an unknown op, a stale sequence — and
// checks the batch leaves no trace: same graph counts, same emitted
// source-graph pointer, same sequence number, and a subsequent valid
// batch still applies.
func TestApplyRejectsInvalidBatchAtomically(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pg := randomCorpus(rng, 6, 20, 40)
	p, err := NewPipeline(pg, Options{Spam: []int32{0}, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := p.Ingestor().Emit()
	pages, links := pg.NumPages(), pg.NumLinks()
	seq := p.LastSeq()

	// A page the graph does not have (but whose id is near-miss valid),
	// reached only after valid deltas that must roll back with it.
	bad := [][]Delta{
		{AddPage(2), AddEdge(0, pagegraph.PageID(pages+1))},        // staged page count off by one
		{AddEdge(0, 1), AddPage(99)},                               // unknown source
		{RemoveEdge(0, pagegraph.PageID(pages+5))},                 // unknown target page
		{AddEdge(3, 3), {Op: Op(42)}},                              // unknown op
		{TouchPage(pagegraph.PageID(pages))},                       // touch of unknown page
		{AddSource("x.example"), AddPage(pagegraph.SourceID(999))}, // source id not the staged one
	}
	// Removing the same physical link twice when only one copy exists.
	var victim pagegraph.PageID = -1
	for pid := 0; pid < pages; pid++ {
		out := pg.OutLinks(pagegraph.PageID(pid))
		if len(out) == 1 {
			victim = pagegraph.PageID(pid)
			bad = append(bad, []Delta{RemoveEdge(victim, out[0]), RemoveEdge(victim, out[0])})
			break
		}
	}
	for i, deltas := range bad {
		if _, err := p.Apply(deltas); err == nil {
			t.Fatalf("bad batch %d applied", i)
		}
		if pg.NumPages() != pages || pg.NumLinks() != links {
			t.Fatalf("bad batch %d mutated the page graph", i)
		}
		if got := p.Ingestor().Emit(); got != before {
			t.Fatalf("bad batch %d dirtied the source graph", i)
		}
		if p.LastSeq() != seq {
			t.Fatalf("bad batch %d advanced the sequence", i)
		}
	}
	if err := pg.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Apply([]Delta{AddEdge(0, 1), TouchPage(2)}); err != nil {
		t.Fatalf("valid batch after rejections: %v", err)
	}
	if p.LastSeq() != seq+1 {
		t.Fatalf("sequence after recovery = %d, want %d", p.LastSeq(), seq+1)
	}
}

// TestRefreshSkipsOnTouchOnlyChurn: a batch of pure touches changes no
// state, so the next refresh must take every fast path — skipped SRSR
// solve and skipped baselines — and republish with pointer-identical
// score vectors (the delta publisher's wholesale-reuse witness).
func TestRefreshSkipsOnTouchOnlyChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pg := randomCorpus(rng, 10, 30, 80)
	store := server.NewStore(nil)
	p, err := NewPipeline(pg, Options{Spam: []int32{1, 2}, TopK: 3, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	first, st1, err := p.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if st1.SolveSkipped || st1.PageRankSkipped || st1.TrustRankSkipped {
		t.Fatalf("first refresh claimed warm skips: %+v", st1)
	}
	if _, err := p.Apply([]Delta{TouchPage(0), TouchPage(5), TouchPage(5)}); err != nil {
		t.Fatal(err)
	}
	second, st2, err := p.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if !st2.SolveSkipped || !st2.PageRankSkipped || !st2.TrustRankSkipped {
		t.Fatalf("touch-only refresh ran solves: %+v", st2)
	}
	for _, algo := range first.Algos() {
		a, b := first.Set(algo).ScoresView(), second.Set(algo).ScoresView()
		if &a[0] != &b[0] {
			t.Fatalf("%s: touch-only refresh did not reuse the score vector", algo)
		}
	}
	if second.Version() != 2 || second.ParentVersion() != 1 {
		t.Fatalf("lineage = v%d parent %d, want v2 parent 1", second.Version(), second.ParentVersion())
	}
	if got := p.Stats(); got.Touches != 3 {
		t.Fatalf("touch count = %d, want 3", got.Touches)
	}
}

// TestRecrawlAfterJacobiSolveSkips: with κ > 0 the SRSR solve runs
// Jacobi and the builder retains its Jacobi operand, so a recrawl
// (re-adds of links pages already have) right after a drift batch and
// right after a rewire batch must still skip every solve: the retained
// scores pass the probe over that operand.
func TestRecrawlAfterJacobiSolveSkips(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pg := randomCorpus(rng, 40, 300, 1200)
	p, err := NewPipeline(pg, Options{Spam: []int32{1, 2, 3}, TopK: 4, Store: server.NewStore(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(p.Kappa(), func(k float64) bool { return k > 0 }) {
		t.Fatal("no source throttled: the solve would not run Jacobi")
	}
	drift := func() []Delta { return driftDeltas(rng, pg) }
	// rewire: pages drop one link and gain one to a random page.
	rewire := func() []Delta {
		var ds []Delta
		for len(ds) < 10 {
			q := pagegraph.PageID(rng.Intn(pg.NumPages()))
			if out := pg.OutLinks(q); len(out) > 0 && !slices.ContainsFunc(ds, func(d Delta) bool { return d.From == q }) {
				ds = append(ds, RemoveEdge(q, out[0]), AddEdge(q, pagegraph.PageID(rng.Intn(pg.NumPages()))))
			}
		}
		return ds
	}
	recrawl := func() []Delta {
		var ds []Delta
		for q := 0; q < pg.NumPages() && len(ds) < 8; q += 1 + rng.Intn(30) {
			if out := pg.OutLinks(pagegraph.PageID(q)); len(out) > 0 {
				ds = append(ds, AddEdge(pagegraph.PageID(q), out[len(out)-1]), TouchPage(pagegraph.PageID(q)))
			}
		}
		return ds
	}
	for _, c := range []struct {
		class string
		batch func() []Delta
	}{{"drift", drift}, {"rewire", rewire}} {
		if _, err := p.Apply(c.batch()); err != nil {
			t.Fatalf("%s: %v", c.class, err)
		}
		_, st, err := p.Refresh()
		if err != nil {
			t.Fatalf("%s: %v", c.class, err)
		}
		if st.SolveSkipped {
			t.Fatalf("%s batch left T unchanged; the test needs an SRSR solve", c.class)
		}
		if _, err := p.Apply(recrawl()); err != nil {
			t.Fatalf("recrawl after %s: %v", c.class, err)
		}
		if _, st, err = p.Refresh(); err != nil {
			t.Fatalf("recrawl after %s: %v", c.class, err)
		}
		if !st.SolveSkipped || !st.PageRankSkipped || !st.TrustRankSkipped {
			t.Fatalf("recrawl after a Jacobi %s ran solves: %+v", c.class, st.BuildInfo)
		}
	}
}

// driftDeltas is a count-drift batch over pg: a sibling of a linking page
// starts linking into the same source, growing a count inside an
// existing cell.
func driftDeltas(rng *rand.Rand, pg *pagegraph.Graph) []Delta {
	linksInto := func(q pagegraph.PageID, s pagegraph.SourceID) bool {
		return slices.ContainsFunc(pg.OutLinks(q), func(r pagegraph.PageID) bool { return pg.SourceOf(r) == s })
	}
	var ds []Delta
	for q := 0; q < pg.NumPages() && len(ds) < 5; q++ {
		out := pg.OutLinks(pagegraph.PageID(q))
		if len(out) == 0 {
			continue
		}
		tgt := out[0]
		for _, sib := range pg.PagesOf(pg.SourceOf(pagegraph.PageID(q))) {
			if !linksInto(sib, pg.SourceOf(tgt)) {
				ds = append(ds, AddEdge(sib, tgt))
				break
			}
		}
		q += rng.Intn(40)
	}
	return ds
}

// TestDriftReusesTransitionPattern: a count-drift batch through the
// pipeline emits a T that keeps the previous RowPtr and Cols under new
// values, and the SRSR scores it publishes, solved over the operand core
// rewrites in place, equal bit for bit a solve from the same warm start
// over an operand built fresh. A rewire emits new arrays.
func TestDriftReusesTransitionPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pg := randomCorpus(rng, 40, 300, 1200)
	p, err := NewPipeline(pg, Options{Spam: []int32{1, 2, 3}, TopK: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := p.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(p.Kappa(), func(k float64) bool { return k > 0 }) {
		t.Fatal("no source throttled: the solve would not run Jacobi")
	}
	for round := 0; round < 3; round++ {
		prev, prevScores := p.Ingestor().Emit(), snap.Set(server.AlgoSRSR).ScoresView()
		if _, err := p.Apply(driftDeltas(rng, pg)); err != nil {
			t.Fatal(err)
		}
		var st RefreshStats
		if snap, st, err = p.Refresh(); err != nil {
			t.Fatal(err)
		}
		sg := p.Ingestor().Emit()
		if sg.T == prev.T || &sg.T.RowPtr[0] != &prev.T.RowPtr[0] || &sg.T.Cols[0] != &prev.T.Cols[0] {
			t.Fatalf("round %d: the drift emit did not keep T's RowPtr and Cols under new values", round)
		}
		if st.SolveSkipped || !st.ProximityCarried {
			t.Fatalf("round %d: drift refresh %+v, want proximity carried and a solve", round, st.BuildInfo)
		}
		fresh, err := core.Rank(sg, p.Kappa(), core.Config{Workers: 1, X0: prevScores})
		if err != nil {
			t.Fatal(err)
		}
		got := snap.Set(server.AlgoSRSR).ScoresView()
		if !slices.EqualFunc(got, fresh.Scores, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("round %d: published σ differs from a solve over a fresh operand", round)
		}
	}
	// A rewire: a link into a source the page's source never linked to.
	prev := p.Ingestor().Emit()
	var rewire []Delta
	page := pg.PagesOf(0)[0]
	cols, _ := prev.Counts.Row(0)
	for q := 0; q < pg.NumPages() && rewire == nil; q++ {
		if !slices.Contains(cols, int32(pg.SourceOf(pagegraph.PageID(q)))) {
			rewire = []Delta{AddEdge(page, pagegraph.PageID(q))}
		}
	}
	if _, err := p.Apply(rewire); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	if sg := p.Ingestor().Emit(); sg.NumEdges == prev.NumEdges || &sg.T.RowPtr[0] == &prev.T.RowPtr[0] {
		t.Fatal("a rewire emit kept the old sparsity arrays")
	}
}

// TestWALReplayRestoresState: a pipeline with a write-ahead log is
// rebuilt from the base corpus plus the log alone, and must come back
// bitwise identical — graph counts, sequence number, and the emitted
// source graph.
func TestWALReplayRestoresState(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := randomCorpus(rng, 12, 40, 120)
	dir := t.TempDir()
	opt := Options{Spam: []int32{0, 4}, TopK: 3, WALDir: dir}

	live, err := NewPipeline(base.Clone(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := live.Apply(randomDeltas(rng, live.Ingestor().PageGraph())); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := live.Refresh(); err != nil {
		t.Fatal(err)
	}

	recovered, err := NewPipeline(base.Clone(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.LastSeq() != live.LastSeq() {
		t.Fatalf("recovered seq %d, want %d", recovered.LastSeq(), live.LastSeq())
	}
	assertSameSourceGraph(t, recovered.Ingestor().Emit(), live.Ingestor().Emit())
	lp, rp := live.Ingestor().PageGraph(), recovered.Ingestor().PageGraph()
	if lp.NumPages() != rp.NumPages() || lp.NumLinks() != rp.NumLinks() || lp.NumSources() != rp.NumSources() {
		t.Fatalf("recovered page graph shape diverged")
	}
}

// TestBatchCodecRoundTrip pins the WAL wire format against every op.
func TestBatchCodecRoundTrip(t *testing.T) {
	b := Batch{Seq: 42, Deltas: []Delta{
		AddSource("αβ.example"), AddSource(""),
		AddPage(3), AddEdge(0, 7), RemoveEdge(7, 0), TouchPage(9),
	}}
	got, err := DecodeBatch(AppendBatch(nil, b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != b.Seq || !slices.Equal(got.Deltas, b.Deltas) {
		t.Fatalf("round trip diverged: %+v", got)
	}
	if _, err := DecodeBatch(nil); err == nil {
		t.Fatal("decoded empty buffer")
	}
	if _, err := DecodeBatch([]byte("XXXX12345678901234567890")); err == nil {
		t.Fatal("decoded bad magic")
	}
}
