package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"sourcerank/internal/linalg"
	"sourcerank/internal/source"
)

// TestAppendJSONFloat pins the hand renderer's float formatting to
// encoding/json across the format-switch boundaries and a random sweep
// over the full exponent range (including subnormals).
func TestAppendJSONFloat(t *testing.T) {
	vals := []float64{
		0, 1, -1, 0.5, 0.1, 1.0 / 3.0,
		1e-6, 9.999999e-7, 1e-7, 1.0000001e-6, -1.2345678901234567e-6,
		1e21, 9.999999e20, 1.23456789e21,
		1e-300, 5e-324, math.MaxFloat64, -math.MaxFloat64,
		0.0001220703125, 3.141592653589793,
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(640)-320))
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		got := appendJSONFloat(nil, v)
		if string(got) != string(want) {
			t.Fatalf("appendJSONFloat(%v) = %q, want %q", v, got, want)
		}
		if len(got) > maxJSONFloatLen {
			t.Fatalf("appendJSONFloat(%v) is %d bytes, above the score arena's sizing bound %d", v, len(got), maxJSONFloatLen)
		}
	}
}

// FuzzAppendJSONFloat holds appendJSONFloat to json.Marshal on
// arbitrary finite bit patterns, seeded at the edges of its three
// layouts: 1e-6, 1 and 1e21 each one ulp either side, ±0, the smallest
// subnormal, and the negatives of them all.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range []float64{1e-6, 1, 1e21, 0, 5e-324} {
		for _, x := range []float64{v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))} {
			f.Add(math.Float64bits(x))
			f.Add(math.Float64bits(-x))
		}
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return // NewSnapshot refuses them: JSON has no text for either
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat([]byte("prefix"), v); string(got) != "prefix"+string(want) || len(got) > len("prefix")+maxJSONFloatLen {
			t.Fatalf("appendJSONFloat(%v) = %q, want %q, at most %d bytes", v, got[len("prefix"):], want, maxJSONFloatLen)
		}
	})
}

// deltaSnapshot derives a successor snapshot from prev: same labels
// slice (shared backing, as the incremental source maintainer emits),
// same page counts, with each algorithm's scores perturbed — the shape
// of a streamed delta publish whose solve ran.
func deltaSnapshot(t *testing.T, prev *Snapshot, rng *rand.Rand) *Snapshot {
	t.Helper()
	sets := make(map[Algo]*ScoreSet, len(prev.sets))
	for algo, ss := range prev.sets {
		scores := append(linalg.Vector(nil), ss.scores...)
		for i := range scores {
			scores[i] *= 1 + 0.01*rng.Float64()
		}
		scores.Normalize1()
		sets[algo] = NewScoreSet(scores, ss.stats)
	}
	snap, err := NewSnapshot(prev.corpus, prev.labels, prev.pageCount, prev.kappaTopK, sets, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestDeltaPublishByteIdentical is the golden test for the delta
// renderers: a publish over a live predecessor takes the direct-render
// path (asserted, not assumed), and every rendered body must still equal
// the encoding/json oracle's byte for byte — including the nasty-label corpus
// that stresses escaping and marker collisions.
func TestDeltaPublishByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	store := NewStore(nastySnapshot(t))
	snap := deltaSnapshot(t, store.Current(), rng)
	store.Publish(snap)
	if snap.resp.heads == nil {
		t.Fatal("delta publish did not build the entry heads")
	}
	assertRenderedEqualsOracle(t, store)
	rendered, ref := twoServers(store)
	a, b := rawGet(t, rendered.Handler(), "/v1/snapshot", nil), rawGet(t, ref.Handler(), "/v1/snapshot", nil)
	if a.Body.String() != b.Body.String() {
		t.Fatalf("snapshot meta differs\nrendered:\n%s\noracle:\n%s", a.Body.String(), b.Body.String())
	}
	if !strings.Contains(a.Body.String(), `"parent_version": 1`) {
		t.Fatalf("delta publish missing parent lineage:\n%s", a.Body.String())
	}

	// A third publish in the lineage reuses the entry heads, escaped
	// labels included.
	third := deltaSnapshot(t, snap, rng)
	store.Publish(third)
	assertRenderedEqualsOracle(t, store)
	if third.resp.heads != snap.resp.heads {
		t.Fatal("entry heads were re-rendered instead of reused")
	}
}

// TestDeltaPublishWholesaleReuse pins the skip-solve path: when a
// publish carries the previous snapshot's very score/label/page arrays,
// the rank index, the label map, the score texts and the entry slabs are
// shared (no re-sort, no re-format, no re-render), only the
// version-bearing heads change, and the bodies still match the oracle.
func TestDeltaPublishWholesaleReuse(t *testing.T) {
	first := nastySnapshot(t)
	store := NewStore(first)
	sets := make(map[Algo]*ScoreSet, len(first.sets))
	for algo, ss := range first.sets {
		sets[algo] = NewScoreSet(ss.scores, ss.stats) // same vector, pointer-identical
	}
	second, err := NewSnapshot(first.corpus, first.labels, first.pageCount, first.kappaTopK, sets, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	store.Publish(second)
	if reused, rendered := store.PublishSets(); reused != 2 || rendered != 2 {
		t.Fatalf("publish sets reused/rendered = %d/%d, want 2/2", reused, rendered)
	}
	if reflect.ValueOf(second.byLabel).Pointer() != reflect.ValueOf(first.byLabel).Pointer() {
		t.Fatal("label map was rebuilt, not shared")
	}
	if second.resp.heads != first.resp.heads {
		t.Fatal("entry heads were rebuilt, not shared")
	}
	for _, algo := range second.Algos() {
		if ss, pss := second.sets[algo], first.sets[algo]; &ss.order[0] != &pss.order[0] || &ss.rank[0] != &pss.rank[0] {
			t.Fatalf("%s: rank index was re-sorted, not shared", algo)
		}
		tc, ptc := second.resp.topk[algo], first.resp.topk[algo]
		if tc == nil || ptc == nil {
			t.Fatalf("missing topk cache for %s", algo)
		}
		if len(tc.entries) > 0 && &tc.entries[0] != &ptc.entries[0] {
			t.Fatalf("%s: topk entries were re-rendered, not reused", algo)
		}
		if second.resp.rank[algo] == nil || first.resp.rank[algo] == nil {
			t.Fatalf("missing rank head for %s", algo)
		}
		if second.resp.scores[algo] != first.resp.scores[algo] {
			t.Fatalf("%s: score texts were re-formatted, not reused", algo)
		}
	}
	rendered, ref := twoServers(store)
	for _, path := range []string{"/v1/topk?n=5", "/v1/rank/2", "/v1/compare?a=2&b=5", "/v1/snapshot"} {
		a := rawGet(t, rendered.Handler(), path, nil)
		b := rawGet(t, ref.Handler(), path, nil)
		if a.Code != http.StatusOK || a.Body.String() != b.Body.String() {
			t.Fatalf("%s: reused body differs from the oracle (status %d)\nrendered:\n%s\noracle:\n%s",
				path, a.Code, a.Body.String(), b.Body.String())
		}
		if !strings.Contains(a.Body.String(), `"version": 2`) {
			t.Fatalf("%s: reused body kept the stale version:\n%s", path, a.Body.String())
		}
	}
}

// TestPublishCarriesOnlyUnchangedSets mixes the two cases in one publish:
// the algorithm whose vector is the predecessor's is carried whole, the
// one whose vector changed is indexed and rendered alone, and both still
// match the oracle byte for byte.
func TestPublishCarriesOnlyUnchangedSets(t *testing.T) {
	first := nastySnapshot(t)
	store := NewStore(first)
	changed := append(linalg.Vector(nil), first.sets[AlgoSRSR].scores...)
	changed[1], changed[3] = 0.125, 0
	second, err := NewSnapshot(first.corpus, first.labels, first.pageCount, first.kappaTopK, map[Algo]*ScoreSet{
		AlgoSRSR:     NewScoreSet(changed, linalg.IterStats{}),
		"weird.algo": NewScoreSet(first.sets["weird.algo"].scores, linalg.IterStats{}),
	}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	store.Publish(second)
	if reused, rendered := store.PublishSets(); reused != 1 || rendered != 3 {
		t.Fatalf("publish sets reused/rendered = %d/%d, want 1/3", reused, rendered)
	}
	if &second.sets["weird.algo"].order[0] != &first.sets["weird.algo"].order[0] ||
		second.resp.scores["weird.algo"] != first.resp.scores["weird.algo"] {
		t.Fatal("unchanged algorithm was not carried")
	}
	if &second.sets[AlgoSRSR].order[0] == &first.sets[AlgoSRSR].order[0] ||
		second.resp.scores[AlgoSRSR] == first.resp.scores[AlgoSRSR] {
		t.Fatal("changed algorithm shares its predecessor's index or score texts")
	}
	assertRenderedEqualsOracle(t, store)
	metrics := rawGet(t, New(store, Config{}).Handler(), "/metrics", nil).Body.String()
	for _, want := range []string{
		`srserve_publish_sets_total{outcome="reused"} 1`,
		`srserve_publish_sets_total{outcome="rendered"} 3`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestPublishAllocatesOutputOnce bounds a full re-render (every vector
// changed over a live predecessor) to 1.25x the bytes the new snapshot
// retains: every index, score arena and slab is allocated once.
func TestPublishAllocatesOutputOnce(t *testing.T) {
	const n = 9822
	rng := rand.New(rand.NewSource(5))
	labels, pages := make([]string, n), make([]int, n)
	sets := map[Algo]*ScoreSet{}
	for i := range labels {
		labels[i] = fmt.Sprintf("host-%d.example.org", i)
		pages[i] = rng.Intn(400)
	}
	for _, algo := range DefaultAlgos {
		scores := make(linalg.Vector, n)
		for i := range scores {
			scores[i] = rng.Float64() / n
		}
		sets[algo] = NewScoreSet(scores, linalg.IterStats{})
	}
	first, err := NewSnapshot(CorpusInfo{Name: "alloc"}, labels, pages, 0, sets, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(first)
	second := deltaSnapshot(t, first, rng)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	store.Publish(second)
	runtime.ReadMemStats(&after)
	retained := 0
	for _, algo := range second.Algos() {
		ss, tc, sc := second.sets[algo], second.resp.topk[algo], second.resp.scores[algo]
		retained += 4*(cap(ss.order)+cap(ss.rank)) + cap(tc.entries) + 8*cap(tc.ends) + cap(sc.b) + 4*cap(sc.offs) +
			len(tc.head) + len(second.resp.rank[algo].head)
		if len(tc.entries)*10 < cap(tc.entries)*9 {
			t.Fatalf("%s: entry slab sized loosely: %d/%d", algo, len(tc.entries), cap(tc.entries))
		}
	}
	if got := int(after.TotalAlloc - before.TotalAlloc); got*4 > retained*5 {
		t.Fatalf("publish allocated %d bytes to retain %d (%.2fx, want <= 1.25x)", got, retained, float64(got)/float64(retained))
	}
}

// TestTrustedSeedsMatchesSort checks the bounded selection against the
// full sort it replaced, on heavy ties, spam exclusion and fewer than 10
// candidates.
func TestTrustedSeedsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		sg := &source.Graph{PageCount: make([]int, n)}
		for i := range sg.PageCount {
			sg.PageCount[i] = rng.Intn(4) // few distinct values: ties everywhere
		}
		var spam []int32
		ex := map[int32]bool{}
		for i := 0; i < n; i++ {
			if rng.Intn(5) == 0 {
				spam = append(spam, int32(i))
				ex[int32(i)] = true
			}
		}
		var ids []int32
		for i := 0; i < n; i++ {
			if !ex[int32(i)] {
				ids = append(ids, int32(i))
			}
		}
		slices.SortFunc(ids, func(a, b int32) int {
			if ca, cb := sg.PageCount[a], sg.PageCount[b]; ca != cb {
				return cb - ca
			}
			return int(a - b)
		})
		if got, want := TrustedSeeds(sg, spam), ids[:min(10, len(ids))]; !slices.Equal(got, want) {
			t.Fatalf("n=%d pages=%v spam=%v: got %v, want %v", n, sg.PageCount, spam, got, want)
		}
	}
}

// TestParentVersionLineage checks the version chain across publishes
// and that the first publish omits the field entirely.
func TestParentVersionLineage(t *testing.T) {
	store := NewStore(nastySnapshot(t))
	srv := New(store, Config{})
	body := rawGet(t, srv.Handler(), "/v1/snapshot", nil).Body.String()
	if strings.Contains(body, "parent_version") {
		t.Fatalf("first publish should omit parent_version:\n%s", body)
	}
	if store.Current().ParentVersion() != 0 {
		t.Fatal("first publish should have parent 0")
	}
	store.Publish(nastySnapshot(t))
	if got := store.Current().ParentVersion(); got != 1 {
		t.Fatalf("second publish parent = %d, want 1", got)
	}
	store.Publish(nastySnapshot(t))
	if got := store.Current().ParentVersion(); got != 2 {
		t.Fatalf("third publish parent = %d, want 2", got)
	}
}

// FuzzLabelEscape checks the escaped labels sliced out of the entry heads
// against json.Marshal on arbitrary strings, both when the heads are
// built cold and when a lineage appends the label behind a reused prefix.
func FuzzLabelEscape(f *testing.F) {
	for _, l := range hostileLabels {
		f.Add(l)
	}
	f.Fuzz(func(t *testing.T, label string) {
		want, err := json.Marshal(label)
		if err != nil {
			t.Fatal(err)
		}
		backing, dig := []string{"prefix", label}, decimals(2)
		old := headsFor(backing[:1], dig, nil)
		for _, h := range []*entryHeads{headsFor(backing[1:], dig, nil), headsFor(backing, dig, old)} {
			c := &respCache{heads: h, digits: dig}
			if got := c.label(int32(len(h.labels) - 1)); string(got) != string(want) {
				t.Fatalf("label %q escaped to %s, want %s", label, got, want)
			}
		}
	})
}

// FuzzRenderedBodies holds every rendered body to the encoding/json
// oracle on random finite snapshots: ±0, subnormals, ties, negative
// scores, values either side of 1e-6 and 1e21 (every branch of
// appendJSONFloat) and normal values over the whole exponent range, under
// hostile labels and a hostile algorithm name built from the fuzzed
// label. Each input is published cold, then again over itself with the
// labels shared and one vector changed, so the carried path is held to
// the oracle as well.
func FuzzRenderedBodies(f *testing.F) {
	for i, l := range hostileLabels {
		f.Add(int64(i), l)
	}
	edges := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308, 1e-6,
		9.999999999999999e-7, -1e-6, 1e21, 9.999999999999999e20, -1e21, math.MaxFloat64, 0.125}
	f.Fuzz(func(t *testing.T, seed int64, label string) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(9)
		labels, pages := make([]string, n), make([]int, n)
		for i := range labels {
			labels[i] = label + hostileLabels[rng.Intn(len(hostileLabels))]
			pages[i] = rng.Intn(2*n + 1)
		}
		vector := func() linalg.Vector {
			v := make(linalg.Vector, n)
			for i := range v {
				if rng.Intn(2) == 0 {
					v[i] = edges[rng.Intn(len(edges))]
				} else {
					v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(600)-300))
				}
			}
			return v
		}
		sets := map[Algo]*ScoreSet{AlgoSRSR: NewScoreSet(vector(), linalg.IterStats{}), Algo("a" + label): NewScoreSet(vector(), linalg.IterStats{})}
		first, err := NewSnapshot(CorpusInfo{Name: label}, labels, pages, 0, sets, time.Unix(1700000000, 0))
		if err != nil {
			t.Fatal(err)
		}
		store := NewStore(first)
		assertRenderedEqualsOracle(t, store)
		sets = map[Algo]*ScoreSet{AlgoSRSR: NewScoreSet(vector(), linalg.IterStats{})}
		for algo, ss := range first.sets {
			if algo != AlgoSRSR {
				sets[algo] = NewScoreSet(ss.scores, ss.stats)
			}
		}
		second, err := NewSnapshot(first.corpus, labels, pages, 0, sets, time.Unix(1700000001, 0))
		if err != nil {
			t.Fatal(err)
		}
		store.Publish(second)
		assertRenderedEqualsOracle(t, store)
	})
}

// hostileLabels are labels json.Marshal does not quote verbatim, next to
// ones it does: HTML-escaped runes, quotes, backslashes, control bytes,
// DEL, the JavaScript line separators and invalid UTF-8.
var hostileLabels = []string{
	"", "plain.example.org", "~ !#$%'()*+,-./09:;=?@AZ[]^_`az{|}",
	"<b>&amp;</b>", "a<b", "b>a", "r&d", `say "hi"`, `c:\dir\`, "tab\there", "nl\nx\r\x00\x1f",
	"del\x7f", "ls\u2028ps\u2029", "bad\xffutf8\xc3", "ünïcödé-ラベル",
}

// assertRenderedEqualsOracle compares every rendered /v1/topk (n from 0
// past the source count), /v1/rank and /v1/compare body and the
// /v1/snapshot body of store's current snapshot with the encoding/json
// oracle's. Compare runs over every ordered pair of sources. Every answer
// must be a 200 but a comparison whose score ratio overflows, which must
// be the oracle's 500.
func assertRenderedEqualsOracle(t *testing.T, store *Store) {
	t.Helper()
	snap := store.Current()
	rendered, ref := twoServers(store)
	hc, hf := rendered.Handler(), ref.Handler()
	want := map[string]int{"/v1/snapshot": http.StatusOK}
	for _, algo := range snap.Algos() {
		q, scores := url.QueryEscape(string(algo)), snap.sets[algo].scores
		for n := 0; n <= snap.NumSources()+1; n++ {
			want[fmt.Sprintf("/v1/topk?algo=%s&n=%d", q, n)] = http.StatusOK
		}
		for id := range scores {
			want[fmt.Sprintf("/v1/rank/%d?algo=%s", id, q)] = http.StatusOK
			for b := range scores {
				code := http.StatusOK
				if math.IsInf(scoreRatio(scores[id], scores[b]), 0) {
					code = http.StatusInternalServerError
				}
				want[fmt.Sprintf("/v1/compare?a=%d&b=%d&algo=%s", id, b, q)] = code
			}
		}
	}
	for path, code := range want {
		a, b := rawGet(t, hc, path, nil), rawGet(t, hf, path, nil)
		if a.Code != code || b.Code != code || a.Body.String() != b.Body.String() {
			t.Fatalf("v%d %s: status %d, oracle %d, want %d; rendered body differs from the oracle's\nrendered:\n%s\noracle:\n%s",
				snap.Version(), path, a.Code, b.Code, code, a.Body.String(), b.Body.String())
		}
	}
}

// TestHostileLabelsByteIdentical runs the golden comparison over
// hostileLabels on a cold publish and on a lineage that appends more of
// them behind the previous publish's labels, carrying its entry heads.
func TestHostileLabelsByteIdentical(t *testing.T) {
	backing := append(append([]string(nil), hostileLabels...), hostileLabels...)
	rng := rand.New(rand.NewSource(13))
	snapshot := func(labels []string) *Snapshot {
		scores := make(linalg.Vector, len(labels))
		pages := make([]int, len(labels))
		for i := range scores {
			scores[i] = float64(rng.Intn(4)) / 8 // ties
			pages[i] = rng.Intn(3 * len(labels))
		}
		snap, err := NewSnapshot(CorpusInfo{Name: "hostile"}, labels, pages, 0,
			map[Algo]*ScoreSet{AlgoSRSR: NewScoreSet(scores, linalg.IterStats{})}, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	k := len(hostileLabels)
	store := NewStore(snapshot(backing[:k]))
	assertRenderedEqualsOracle(t, store)
	for _, n := range []int{k + 1, len(backing)} { // grow by one, then by the rest
		prev := store.Current().resp.heads
		store.Publish(snapshot(backing[:n]))
		assertRenderedEqualsOracle(t, store)
		cur := store.Current().resp.heads
		if k := len(prev.labels); !slices.Equal(cur.offs[:k+1], prev.offs) || string(cur.b[:prev.offs[k]]) != string(prev.b) {
			t.Fatalf("the %d carried entry heads changed", k)
		}
	}
}

// TestConcurrentFinalizeMatchesOneGoroutine: a first publish finalizes
// on GOMAXPROCS workers and a publish over a served snapshot on one. On
// hostile labels, ties and one algorithm holding a negative score and −0, every
// /v1/topk and /v1/rank body and every publish outcome count must be the
// same whichever path ran, at any GOMAXPROCS.
func TestConcurrentFinalizeMatchesOneGoroutine(t *testing.T) {
	const n, version = 300, 7
	rng := rand.New(rand.NewSource(17))
	labels, pages := make([]string, n), make([]int, n)
	for i := range labels {
		labels[i] = hostileLabels[i%len(hostileLabels)] + strconv.Itoa(i%40) // duplicates too
		pages[i] = rng.Intn(3 * n)
	}
	scores := map[Algo]linalg.Vector{}
	for _, algo := range DefaultAlgos {
		v := make(linalg.Vector, n)
		for i := range v {
			v[i] = float64(rng.Intn(40)) / 64 // ties
		}
		scores[algo] = v
	}
	scores[AlgoTrustRank][n/2], scores[AlgoTrustRank][n/3] = -0.25, math.Copysign(0, -1)
	content := func() *Snapshot {
		sets := map[Algo]*ScoreSet{}
		for algo, v := range scores {
			sets[algo] = NewScoreSet(v, linalg.IterStats{Converged: true})
		}
		snap, err := NewSnapshot(CorpusInfo{Name: "hostile"}, labels, pages, 0, sets, time.Unix(1700000000, 0))
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	// publish publishes content at version over a store serving over (nil
	// for none) and returns every body and what the publish counted.
	publish := func(procs int, over *Snapshot) (bodies map[string]string, outcomes [numPublishOutcomes]uint64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		store := NewStore(over)
		r0, d0 := store.PublishSets()
		if err := store.PublishExternal(content(), version); err != nil {
			t.Fatal(err)
		}
		r, d := store.PublishSets()
		h := New(store, Config{}).Handler()
		bodies = map[string]string{}
		get := func(path string) {
			rec := rawGet(t, h, path, nil)
			bodies[path] = strconv.Itoa(rec.Code) + " " + rec.Body.String()
		}
		get("/v1/topk")
		for _, algo := range store.Current().Algos() {
			for k := 0; k <= n+1; k++ {
				get(fmt.Sprintf("/v1/topk?algo=%s&n=%d", algo, k))
			}
			for id := 0; id < n; id++ {
				get(fmt.Sprintf("/v1/rank/%d?algo=%s", id, algo))
			}
		}
		return bodies, [numPublishOutcomes]uint64{r - r0, d - d0}
	}
	want, wantOutcomes := publish(1, nil)
	if wantOutcomes != [numPublishOutcomes]uint64{0, 3} {
		t.Fatalf("cold publish counted %v, want 3 rendered", wantOutcomes)
	}
	unrelated := testSnapshot(t, AlgoSRSR, []float64{0.5, 0.25, 0.25})
	for _, run := range []struct {
		name  string
		procs int
		over  *Snapshot
	}{
		{"cold GOMAXPROCS=2", 2, nil},
		{"cold GOMAXPROCS=4", 4, nil},
		{"over a served snapshot", 4, unrelated},
	} {
		got, outcomes := publish(run.procs, run.over)
		if outcomes != wantOutcomes {
			t.Errorf("%s: counted %v, GOMAXPROCS=1 counted %v", run.name, outcomes, wantOutcomes)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d bodies, want %d", run.name, len(got), len(want))
		}
		for path, body := range want {
			if got[path] != body {
				t.Fatalf("%s %s:\n%s\nGOMAXPROCS=1 cold publish:\n%s", run.name, path, got[path], body)
			}
		}
	}
}

// TestNonFiniteScoresRefused pins what a score JSON has no text for does
// to a snapshot: NewSnapshot refuses a NaN or ±Inf anywhere in any set,
// naming the algorithm, the first such source and the value, with an
// error wrapping linalg.ErrNonFinite, and a store keeps serving what it
// served. Finite negative scores and −0 render as usual, for every
// /v1/topk, /v1/rank and /v1/compare body.
func TestNonFiniteScoresRefused(t *testing.T) {
	labels := []string{"a", "b", "c", "d"}
	negative := NewScoreSet(linalg.Vector{-0.5, 0.125, math.Copysign(0, -1), -1e-9}, linalg.IterStats{})
	snap, err := NewSnapshot(CorpusInfo{Name: "nonfinite"}, labels, []int{1, 2, 3, 4}, 0, map[Algo]*ScoreSet{"negative": negative}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(snap)
	if reused, rendered := store.PublishSets(); reused != 0 || rendered != 1 {
		t.Fatalf("publish sets reused/rendered = %d/%d, want 0/1", reused, rendered)
	}
	assertRenderedEqualsOracle(t, store)
	for _, tc := range []struct {
		scores linalg.Vector
		want   string
	}{
		{linalg.Vector{0.5, math.NaN(), 0.25, math.NaN()}, "bad score of source 1 is NaN"},
		{linalg.Vector{0.5, 0.125, math.Inf(1), 0.25}, "bad score of source 2 is +Inf"},
		{linalg.Vector{math.Inf(-1), 0.125, 0.25, 0.25}, "bad score of source 0 is -Inf"},
	} {
		sets := map[Algo]*ScoreSet{"negative": negative, "bad": NewScoreSet(tc.scores, linalg.IterStats{})}
		_, err := NewSnapshot(CorpusInfo{Name: "nonfinite"}, labels, []int{1, 2, 3, 4}, 0, sets, time.Now())
		if !errors.Is(err, linalg.ErrNonFinite) || !strings.Contains(fmt.Sprint(err), tc.want) {
			t.Fatalf("NewSnapshot over %v = %v, want %q wrapping linalg.ErrNonFinite", tc.scores, err, tc.want)
		}
	}
	if store.Current() != snap {
		t.Fatal("a refused snapshot disturbed the store")
	}
}

// TestCompareAssembledCases pins each branch of the assembled /v1/compare
// body against the oracle: a zero B score (ratio 0), a source compared
// with itself, a negative rank_delta, ratios on both sides of
// appendJSONFloat's 'e' format, a negative ratio and sources named by
// label all get a 200 with the snapshot's ETag, and a matching
// If-None-Match gets a body-less 304. A ratio that overflows to ±Inf is
// answered as the oracle answers it: a 500 with the error envelope naming
// the value encoding/json refuses, and no ETag. A NaN score never gets
// this far: NewSnapshot refuses it (TestNonFiniteScoresRefused).
func TestCompareAssembledCases(t *testing.T) {
	labels := []string{"zero", "mid", "tiny", "huge", "max", "min", `"quoted" <&>`}
	scores := linalg.Vector{0, 0.5, 1e-9, 1e15, 1e300, 1e-300, -1e300}
	snap, err := NewSnapshot(CorpusInfo{Name: "compare"}, labels, make([]int, len(labels)), 0,
		map[Algo]*ScoreSet{AlgoSRSR: NewScoreSet(scores, linalg.IterStats{})}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	rendered, ref := twoServers(NewStore(snap))
	hc, hf := rendered.Handler(), ref.Handler()
	refused := func(value string) string {
		return `"error": "encoding response: json: unsupported value: ` + value + `"`
	}
	for _, tc := range []struct {
		name, query string
		assembled   bool
		want        string // a fragment of the body
	}{
		{"B.Score == 0", "a=1&b=0", true, `"score_ratio": 0,`},
		{"a == b", "a=1&b=1", true, `"rank_delta": 0`},
		{"negative rank_delta", "a=2&b=3", true, `"rank_delta": -2`},
		{"ratio below 1e-6", "a=2&b=1", true, `"score_ratio": 2e-9,`},
		{"ratio at or above 1e21", "a=3&b=2", true, `"score_ratio": 1e+24,`},
		{"negative ratio", "a=6&b=1", true, `"score_ratio": -2e+300,`},
		{"by label", "a=mid&b=%22quoted%22%20%3C%26%3E", true, `"score_ratio": -5e-301,`},
		{"ratio overflows to +Inf", "a=4&b=5", false, refused("+Inf")},
		{"ratio overflows to -Inf", "a=6&b=5", false, refused("-Inf")},
	} {
		path := "/v1/compare?" + tc.query
		a, b := rawGet(t, hc, path, nil), rawGet(t, hf, path, nil)
		if a.Code != b.Code || a.Body.String() != b.Body.String() {
			t.Fatalf("%s: rendered %d\n%s\noracle %d\n%s", tc.name, a.Code, a.Body, b.Code, b.Body)
		}
		wantCode := http.StatusOK
		if !tc.assembled {
			wantCode = http.StatusInternalServerError
		}
		if a.Code != wantCode || !strings.Contains(a.Body.String(), tc.want) {
			t.Fatalf("%s: status %d, body lacks %q:\n%s", tc.name, a.Code, tc.want, a.Body)
		}
		etag := a.Header().Get("ETag")
		if assembled := etag != ""; assembled != tc.assembled {
			t.Fatalf("%s: assembled = %v, want %v", tc.name, assembled, tc.assembled)
		}
		if !tc.assembled {
			continue
		}
		if ct := a.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q", tc.name, ct)
		}
		cond := rawGet(t, hc, path, map[string]string{"If-None-Match": etag})
		if cond.Code != http.StatusNotModified || cond.Body.Len() != 0 || cond.Header().Get("ETag") != etag {
			t.Fatalf("%s: If-None-Match %s gave %d with %d body bytes", tc.name, etag, cond.Code, cond.Body.Len())
		}
	}
}

// TestRankCarryCases publishes each way a rendered algorithm's inputs
// can be shared with the outgoing snapshot — every input, only the
// scores (labels replaced), and scores and labels with new page counts —
// and requires the score texts to carry with the vector in all three,
// the top-k entries only with the labels, and every body to stay the
// oracle's.
func TestRankCarryCases(t *testing.T) {
	first := nastySnapshot(t)
	store := NewStore(first)
	relabeled := append([]string(nil), first.labels...)
	relabeled[2], relabeled[5] = `now "escaped" <&>`, "plain-again"
	repaged := append([]int(nil), first.pageCount...)
	repaged[0], repaged[3] = 42, 0 // above the source count; omitted
	for _, tc := range []struct {
		name      string
		labels    []string
		pages     []int
		topkCarry bool
	}{
		{"all shared", first.labels, first.pageCount, true},
		{"labels changed", relabeled, first.pageCount, false},
		{"pages changed", relabeled, repaged, true},
	} {
		prev := store.Current()
		sets := make(map[Algo]*ScoreSet, len(prev.sets))
		for algo, ss := range prev.sets {
			sets[algo] = NewScoreSet(ss.scores, ss.stats)
		}
		snap, err := NewSnapshot(prev.corpus, tc.labels, tc.pages, prev.kappaTopK, sets, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		store.Publish(snap)
		for _, algo := range snap.Algos() {
			if snap.resp.scores[algo] != prev.resp.scores[algo] {
				t.Fatalf("%s: %s score texts were re-formatted, not carried", tc.name, algo)
			}
			carried := len(snap.resp.topk[algo].entries) > 0 && &snap.resp.topk[algo].entries[0] == &prev.resp.topk[algo].entries[0]
			if carried != tc.topkCarry {
				t.Fatalf("%s: %s top-k entries carried = %v, want %v", tc.name, algo, carried, tc.topkCarry)
			}
		}
		assertRenderedEqualsOracle(t, store)
	}
}

// TestRankAssembledPastOldCap serves /v1/rank on a corpus above 2¹⁷
// sources, the size whose bodies were once encoded per request, and
// requires every source's assembled body under every algorithm to equal
// the oracle's — with hostile labels, zero page counts (the field is
// omitted) and page counts above the source count mixed in.
func TestRankAssembledPastOldCap(t *testing.T) {
	const n = 1<<17 + 3
	rng := rand.New(rand.NewSource(17))
	labels, pages := make([]string, n), make([]int, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("host-%d.example.org", i)
		if i%97 == 0 {
			labels[i] = hostileLabels[i/97%len(hostileLabels)] + fmt.Sprint(i)
		}
		switch i % 5 {
		case 0:
			pages[i] = 0
		case 1:
			pages[i] = n + rng.Intn(n)
		default:
			pages[i] = rng.Intn(400)
		}
	}
	sets := map[Algo]*ScoreSet{}
	for _, algo := range []Algo{AlgoSRSR, AlgoPageRank} {
		scores := make(linalg.Vector, n)
		for i := range scores {
			scores[i] = rng.Float64() / n
		}
		scores[n-1] = scores[0] // a tie
		sets[algo] = NewScoreSet(scores, linalg.IterStats{})
	}
	snap, err := NewSnapshot(CorpusInfo{Name: "large"}, labels, pages, 0, sets, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(snap)
	rendered, ref := twoServers(store)
	hc := rendered.instrument(epRank, true, rendered.handleRank)
	hf := ref.instrument(epRank, true, ref.rank)
	req := httptest.NewRequest(http.MethodGet, "/v1/rank/0", nil)
	for _, algo := range snap.Algos() {
		if snap.resp.rank[algo] == nil {
			t.Fatalf("%s: no rank head", algo)
		}
		req.URL.RawQuery = "algo=" + string(algo)
		for id := 0; id < n; id++ {
			req.SetPathValue("source", strconv.Itoa(id))
			a, b := httptest.NewRecorder(), httptest.NewRecorder()
			hc.ServeHTTP(a, req)
			hf.ServeHTTP(b, req)
			if a.Code != http.StatusOK || a.Body.String() != b.Body.String() {
				t.Fatalf("%s source %d: status %d, assembled body differs from the oracle's\nassembled:\n%s\noracle:\n%s",
					algo, id, a.Code, a.Body, b.Body)
			}
		}
	}
}
