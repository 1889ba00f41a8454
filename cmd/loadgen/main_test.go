package main

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"sourcerank/internal/linalg"
	"sourcerank/internal/server"
)

func TestParseMix(t *testing.T) {
	m, err := parseMix("topk=70, rank=20,compare=0,snapshot=10")
	if err != nil {
		t.Fatal(err)
	}
	want := mixTable{{kindTopK, 70}, {kindRank, 20}, {kindSnapshot, 10}}
	if !slices.Equal(m, want) {
		t.Fatalf("parseMix = %v, want %v (zero weights dropped)", m, want)
	}
	if m.total() != 100 {
		t.Fatalf("total %d, want 100", m.total())
	}
	for r, kind := range map[int]reqKind{0: kindTopK, 69: kindTopK, 70: kindRank, 89: kindRank, 90: kindSnapshot, 99: kindSnapshot} {
		if got := m.pick(r); got != kind {
			t.Errorf("pick(%d) = %v, want %v", r, got, kind)
		}
	}
	for _, bad := range []string{"", "topk", "topk=x", "topk=-1", "hits=5", "topk=0,rank=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

func TestParseConcurrency(t *testing.T) {
	got, err := parseConcurrency("1, 4,16")
	if err != nil || !slices.Equal(got, []int{1, 4, 16}) {
		t.Fatalf("parseConcurrency = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-2", "1,,4", "four"} {
		if _, err := parseConcurrency(bad); err == nil {
			t.Errorf("parseConcurrency(%q) accepted", bad)
		}
	}
}

func TestTargetListSet(t *testing.T) {
	var tl targetList
	for _, v := range []string{"http://a:1/, http://b:2", " ,http://c:3//"} {
		if err := tl.Set(v); err != nil {
			t.Fatal(err)
		}
	}
	if want := []string{"http://a:1", "http://b:2", "http://c:3"}; !slices.Equal(tl, want) {
		t.Fatalf("targets %q, want %q", tl, want)
	}
	if s := tl.String(); s != "http://a:1,http://b:2,http://c:3" {
		t.Fatalf("String() = %q", s)
	}
}

// TestHistBuckets checks that histLowerBound inverts histIdx: every
// bucket's lower bound lands in that bucket, and every duration lies
// within the bounds of the bucket it is filed in. Bucket 243 holds the
// largest time.Duration; its upper bound overflows int64.
func TestHistBuckets(t *testing.T) {
	if got := histIdx(math.MaxInt64); got != 243 {
		t.Fatalf("histIdx(MaxInt64) = %d, want 243", got)
	}
	for i := 0; i < 243; i++ {
		if got := histIdx(histLowerBound(i)); got != i {
			t.Fatalf("histIdx(histLowerBound(%d)) = %d", i, got)
		}
		if histLowerBound(i+1) <= histLowerBound(i) {
			t.Fatalf("bounds not increasing at %d", i)
		}
	}
	for d := time.Duration(0); d < 10*time.Second; d = d*9/8 + 1 {
		i := histIdx(d)
		if d < histLowerBound(i) || d >= histLowerBound(i+1) {
			t.Fatalf("%v filed in bucket %d = [%v, %v)", d, i, histLowerBound(i), histLowerBound(i+1))
		}
	}
}

// TestHistQuantileError holds latHist.quantile to the ~12 % its doc
// states, on latencies spread over four decades.
func TestHistQuantileError(t *testing.T) {
	var a, b latHist
	var exact []time.Duration
	for i := 0; i < 20000; i++ {
		d := time.Duration(math.Pow(10, 4+4*float64(i)/20000)) // 10 µs .. 100 ms
		exact = append(exact, d)
		if i%2 == 0 {
			a.observe(d)
		} else {
			b.observe(d)
		}
	}
	a.merge(&b)
	if a.max != exact[len(exact)-1] {
		t.Fatalf("max %v, want %v", a.max, exact[len(exact)-1])
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want := exact[int(q*float64(len(exact)))].Seconds()
		got := a.quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.125 {
			t.Errorf("quantile(%v) = %v, want %v (rel err %.3f)", q, got, want, rel)
		}
	}
	var empty latHist
	if empty.quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
}

// serveStore starts an srserve handler over a store of n sources,
// published `publishes` times so it serves version `publishes`.
func serveStore(t *testing.T, n, publishes int) *httptest.Server {
	t.Helper()
	labels := make([]string, n)
	pages := make([]int, n)
	scores := make(linalg.Vector, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("source-%d.example", i)
		pages[i] = 1
		scores[i] = 1 / float64(i+1)
	}
	store := server.NewStore(nil)
	for v := 0; v < publishes; v++ {
		snap, err := server.NewSnapshot(server.CorpusInfo{Name: "loadgen-test"}, labels, pages, 1,
			map[server.Algo]*server.ScoreSet{server.AlgoSRSR: server.NewScoreSet(scores, linalg.IterStats{Converged: true})},
			time.Now())
		if err != nil {
			t.Fatal(err)
		}
		store.Publish(snap)
	}
	ts := httptest.NewServer(server.New(store, server.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestRunSamplesExistingSources drives every endpoint of a 50-source
// server: rank and compare must ask only for IDs the corpus has, so no
// response is a 4xx.
func TestRunSamplesExistingSources(t *testing.T) {
	ts := serveStore(t, 50, 1)
	mix, err := parseMix("topk=1,rank=5,compare=5,snapshot=1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run(context.Background(), options{
		targets: []string{ts.URL}, concurrency: []int{1}, mix: mix,
		topkN: 10, duration: 100 * time.Millisecond, maxSkew: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Config.Sources != 50 {
		t.Fatalf("config.sources %d, want 50", rep.Config.Sources)
	}
	if rep.Fleet != nil {
		t.Fatal("one target without -max-skew grew a fleet block")
	}
	r := rep.Runs[0]
	if r.Requests == 0 || r.Errors != 0 {
		t.Fatalf("%d requests, %d errors", r.Requests, r.Errors)
	}
	if n := r.StatusClasses["2xx"]; n != int64(r.Requests) {
		t.Fatalf("status classes %v over %d requests, want all 2xx", r.StatusClasses, r.Requests)
	}
}

// TestFleetSkewVerdict runs two targets one version apart: the tracker
// sees a skew of 1, which a budget of 1 admits and a budget of 0 fails.
func TestFleetSkewVerdict(t *testing.T) {
	old, cur := serveStore(t, 20, 1), serveStore(t, 30, 2)
	mix, err := parseMix("snapshot=1")
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 1} {
		rep, err := run(context.Background(), options{
			targets: []string{old.URL, cur.URL}, concurrency: []int{1}, mix: mix,
			topkN: 10, duration: 50 * time.Millisecond, maxSkew: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		f := rep.Fleet
		if f == nil || f.Samples == 0 {
			t.Fatalf("budget %d: fleet block %+v", budget, f)
		}
		if rep.Config.Sources != 20 {
			t.Fatalf("config.sources %d, want the smaller corpus's 20", rep.Config.Sources)
		}
		if f.MaxSkew != 1 || f.SkewBudget != budget || f.SkewOK != (budget >= 1) {
			t.Fatalf("budget %d: max_skew %d, skew_ok %v", budget, f.MaxSkew, f.SkewOK)
		}
		for i, want := range []uint64{1, 2} {
			p := f.PerTarget[i]
			if p.MinVersion != want || p.MaxVersion != want || p.LastVersion != want || p.Errors != 0 {
				t.Fatalf("budget %d: target %d report %+v, want version %d", budget, i, p, want)
			}
		}
	}
}
