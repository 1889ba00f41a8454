package server

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/rank"
	"sourcerank/internal/source"
)

// testSnapshot builds a small synthetic snapshot with the given scores
// for a single algorithm.
func testSnapshot(t *testing.T, algo Algo, scores []float64) *Snapshot {
	t.Helper()
	labels := make([]string, len(scores))
	pages := make([]int, len(scores))
	for i := range labels {
		labels[i] = "s" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		pages[i] = i + 1
	}
	snap, err := NewSnapshot(CorpusInfo{Name: "test"}, labels, pages, 0,
		map[Algo]*ScoreSet{algo: NewScoreSet(linalg.Vector(scores), linalg.IterStats{Converged: true})},
		time.Now())
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestNewSnapshotRejectsPageCountMismatch: a snapshot serves one page
// count per source, so labels and page counts of different lengths are
// refused rather than published.
func TestNewSnapshotRejectsPageCountMismatch(t *testing.T) {
	sets := map[Algo]*ScoreSet{AlgoSRSR: NewScoreSet(linalg.Vector{0.5, 0.5}, linalg.IterStats{Converged: true})}
	for _, pages := range [][]int{{1}, {1, 2, 3}, nil} {
		if _, err := NewSnapshot(CorpusInfo{}, []string{"a", "b"}, pages, 0, sets, time.Now()); err == nil {
			t.Errorf("%d page counts for 2 sources accepted", len(pages))
		}
	}
	if _, err := NewSnapshot(CorpusInfo{}, []string{"a", "b"}, []int{1, 2}, 0, sets, time.Now()); err != nil {
		t.Fatalf("matching lengths refused: %v", err)
	}
}

func TestScoreSetIndex(t *testing.T) {
	scores := []float64{0.1, 0.5, 0.3, 0.5, 0.0}
	ss := NewScoreSet(linalg.Vector(scores), linalg.IterStats{})
	// Descending score, ties broken by smaller ID: 1, 3, 2, 0, 4.
	want := []int32{1, 3, 2, 0, 4}
	order, rank := ss.index()
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order[%d] = %d, want %d (order %v)", i, order[i], w, order)
		}
	}
	for pos, id := range order {
		if int(rank[id]) != pos {
			t.Fatalf("rank[%d] = %d, want %d", id, rank[id], pos)
		}
	}
}

// comparatorOrder is the comparison sort rankIndex replaced, kept as
// its oracle: descending score, ties by ascending ID. It is a total order
// only on non-NaN scores, so it sorts ids, which must hold no NaN.
func comparatorOrder(scores linalg.Vector, ids []int32) []int32 {
	out := slices.Clone(ids)
	slices.SortFunc(out, func(a, b int32) int {
		sa, sb := scores[a], scores[b]
		switch {
		case sa > sb:
			return -1
		case sa < sb:
			return 1
		}
		return int(a - b)
	})
	return out
}

// checkRankIndex asserts rankIndex puts every non-NaN score where the
// comparator does, then every NaN, by ID, and that rank inverts order.
func checkRankIndex(t *testing.T, scores linalg.Vector) {
	t.Helper()
	var numbers, nans []int32
	for i, s := range scores {
		if math.IsNaN(s) {
			nans = append(nans, int32(i))
		} else {
			numbers = append(numbers, int32(i))
		}
	}
	want := append(comparatorOrder(scores, numbers), nans...)
	order, rank := rankIndex(scores)
	if !slices.Equal(order, want) {
		t.Fatalf("scores %v:\nradix order      %v\ncomparator order %v", scores, order, want)
	}
	for pos, id := range order {
		if int(rank[id]) != pos {
			t.Fatalf("scores %v: rank[%d] = %d, want %d", scores, id, rank[id], pos)
		}
	}
}

// rankIndexSeeds are score vectors on every edge of the radix key: ties,
// both zeros, subnormals, infinities, negatives and NaN of either sign.
var rankIndexSeeds = []linalg.Vector{
	{},
	{0.5},
	{0.1, 0.5, 0.3, 0.5, 0.0},
	{0, math.Copysign(0, -1), 0, math.Copysign(0, -1), 1e-300},
	{5e-324, -5e-324, 1e-310, -1e-310, 0, math.SmallestNonzeroFloat64},
	{math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 1, -1},
	{-0.25, -0.5, -0.25, 0.25, -1e-9, 1e-9},
	{math.NaN(), 1, math.NaN(), math.Inf(-1), math.Copysign(math.NaN(), -1), 0},
	{0.001, 0.002, 0.001, 0.003, 0.002, 0.001},
}

// TestRankIndexMatchesComparator runs the oracle over the seeds and over
// random vectors that mix quantised ties with the special values.
func TestRankIndexMatchesComparator(t *testing.T) {
	for _, scores := range rankIndexSeeds {
		checkRankIndex(t, scores)
	}
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		scores := make(linalg.Vector, rng.Intn(600))
		for i := range scores {
			switch rng.Intn(4) {
			case 0:
				scores[i] = special[rng.Intn(len(special))]
			case 1:
				scores[i] = float64(rng.Intn(1000)-200) / 1000
			default:
				scores[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			}
		}
		checkRankIndex(t, scores)
	}
}

// FuzzRankIndex checks the radix order against the comparator on
// arbitrary float64 bit patterns, eight little-endian bytes a score.
func FuzzRankIndex(f *testing.F) {
	for _, scores := range rankIndexSeeds {
		raw := make([]byte, 0, 8*len(scores))
		for _, s := range scores {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(s))
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		scores := make(linalg.Vector, len(raw)/8)
		for i := range scores {
			scores[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkRankIndex(t, scores)
	})
}

func TestSnapshotTopKAndEntry(t *testing.T) {
	snap := testSnapshot(t, AlgoSRSR, []float64{0.1, 0.5, 0.3, 0.08, 0.02})
	top := snap.TopK(AlgoSRSR, 3)
	if len(top) != 3 {
		t.Fatalf("got %d entries, want 3", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatalf("topk not sorted: %v", top)
		}
		if top[i].Rank != i+1 {
			t.Fatalf("rank %d at position %d", top[i].Rank, i)
		}
	}
	if top[0].Source != 1 {
		t.Fatalf("top source = %d, want 1", top[0].Source)
	}
	if e := snap.Entry(AlgoSRSR, 2); e.Rank != 2 || e.Score != 0.3 {
		t.Fatalf("entry = %+v, want rank 2 score 0.3", e)
	}
	// Oversized and negative n clamp rather than error.
	if all := snap.TopK(AlgoSRSR, 100); len(all) != 5 {
		t.Fatalf("clamped topk returned %d", len(all))
	}
	if none := snap.TopK(AlgoSRSR, -1); len(none) != 0 {
		t.Fatalf("negative n returned %d entries", len(none))
	}
}

func TestSnapshotResolve(t *testing.T) {
	snap := testSnapshot(t, AlgoSRSR, []float64{0.4, 0.6})
	if id, ok := snap.Resolve("1"); !ok || id != 1 {
		t.Fatalf("numeric resolve failed: %d %v", id, ok)
	}
	if id, ok := snap.Resolve(snap.labels[0]); !ok || id != 0 {
		t.Fatalf("label resolve failed: %d %v", id, ok)
	}
	if _, ok := snap.Resolve("99"); ok {
		t.Fatal("out-of-range ID resolved")
	}
	if _, ok := snap.Resolve("no-such-label"); ok {
		t.Fatal("unknown label resolved")
	}
}

func TestSnapshotCompare(t *testing.T) {
	snap := testSnapshot(t, AlgoSRSR, []float64{0.1, 0.4, 0.2})
	rec := rawGet(t, New(NewStore(snap), Config{}).Handler(), "/v1/compare?a=1&b=2", nil)
	var c compareResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &c); err != nil {
		t.Fatalf("status %d: %v\n%s", rec.Code, err, rec.Body)
	}
	if c.A.Rank != 1 || c.B.Rank != 2 {
		t.Fatalf("ranks %d vs %d", c.A.Rank, c.B.Rank)
	}
	if c.RankDelta != 1 {
		t.Fatalf("rank delta %d, want 1", c.RankDelta)
	}
	if got, want := c.ScoreRatio, 0.4/0.2; got != want {
		t.Fatalf("score ratio %g, want %g", got, want)
	}
}

func TestBuildSnapshotFromPreset(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := BuildSnapshot(ds.Pages, ds.SpamSources, BuildConfig{Name: ds.Name})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(snap.Algos()); got != 3 {
		t.Fatalf("algos = %v, want 3", snap.Algos())
	}
	if snap.Corpus().Sources != ds.Pages.NumSources() {
		t.Fatalf("corpus sources %d != %d", snap.Corpus().Sources, ds.Pages.NumSources())
	}
	for _, algo := range snap.Algos() {
		top := snap.TopK(algo, snap.NumSources())
		var sum float64
		for i, e := range top {
			sum += e.Score
			if i > 0 && e.Score > top[i-1].Score {
				t.Fatalf("%s topk unsorted at %d", algo, i)
			}
		}
		// Every served vector is a probability distribution.
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("%s scores sum to %g, want ~1", algo, sum)
		}
		if !snap.Set(algo).Stats().Converged {
			t.Fatalf("%s solver did not converge", algo)
		}
	}
}

// The cold builder solves both baselines over one shared split of Mᵀ.
// Each must carry the bits of the entry point run solo over an operand of
// its own: rank.SolveSplit for PageRank, and rank.TrustRank, which is the
// one-walk SolveSplit.
func TestBuildSnapshotBaselinesShareOperand(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := source.Build(ds.Pages, source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := BuildConfig{Workers: 2}
	snap, err := BuildSnapshotFromSourceGraph(ds.Pages, sg, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := rank.Options{Workers: cfg.Workers}
	for _, algo := range []Algo{AlgoPageRank, AlgoTrustRank} {
		var want *rank.Result
		if algo == AlgoPageRank {
			err = rank.SolveSplit(rank.TransitionT(sg.Structure()), []rank.Options{opt}, func(_ int, r *rank.Result) { want = r })
		} else {
			want, err = rank.TrustRank(sg.Structure(), TrustedSeeds(sg, nil), opt)
		}
		if err != nil {
			t.Fatal(err)
		}
		got := snap.Set(algo)
		if got.Stats() != want.Stats || !slices.Equal(got.ScoresView(), want.Scores) {
			t.Fatalf("%v: shared-operand scores differ from the standalone solve", algo)
		}
	}
}

func TestBuildSnapshotSkipsSRSRWithoutSpam(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := BuildSnapshot(ds.Pages, nil, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Set(AlgoSRSR) != nil {
		t.Fatal("srsr computed without spam labels")
	}
	if snap.Set(AlgoPageRank) == nil || snap.Set(AlgoTrustRank) == nil {
		t.Fatal("baselines missing")
	}
}

func TestBuildSnapshotExtraVector(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	n := ds.Pages.NumSources()
	rng := rand.New(rand.NewSource(1))
	vec := make(linalg.Vector, n)
	for i := range vec {
		vec[i] = rng.Float64()
	}
	snap, err := BuildSnapshot(ds.Pages, nil, BuildConfig{
		Extra: map[Algo]linalg.Vector{"external": vec},
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Set("external") == nil {
		t.Fatal("extra vector not served")
	}
	if top := snap.TopK("external", 1); len(top) != 1 {
		t.Fatalf("topk on extra vector: %v", top)
	}
	// Mismatched length must be rejected at snapshot assembly.
	if _, err := BuildSnapshot(ds.Pages, nil, BuildConfig{
		Extra: map[Algo]linalg.Vector{"bad": vec[:n-1]},
	}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}
