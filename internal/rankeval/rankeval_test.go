package rankeval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sourcerank/internal/linalg"
)

func TestRanks(t *testing.T) {
	scores := linalg.Vector{0.1, 0.5, 0.3}
	r := Ranks(scores)
	if r[1] != 0 || r[2] != 1 || r[0] != 2 {
		t.Errorf("ranks = %v", r)
	}
}

func TestRanksTiesDeterministic(t *testing.T) {
	scores := linalg.Vector{0.5, 0.5, 0.5}
	r := Ranks(scores)
	if r[0] != 0 || r[1] != 1 || r[2] != 2 {
		t.Errorf("tie ranks = %v, want index order", r)
	}
}

func TestPercentile(t *testing.T) {
	scores := linalg.Vector{0.1, 0.4, 0.3, 0.2}
	top, err := Percentile(scores, 1)
	if err != nil {
		t.Fatal(err)
	}
	if top != 75 {
		t.Errorf("top percentile = %v, want 75", top)
	}
	bottom, _ := Percentile(scores, 0)
	if bottom != 0 {
		t.Errorf("bottom percentile = %v, want 0", bottom)
	}
	if _, err := Percentile(scores, 9); err == nil {
		t.Error("out-of-range index accepted")
	}
	single, _ := Percentile(linalg.Vector{1}, 0)
	if single != 0 {
		t.Errorf("single-node percentile = %v", single)
	}
}

func TestBuckets(t *testing.T) {
	// 10 nodes with descending scores; nodes 0..9 rank 0..9.
	scores := make(linalg.Vector, 10)
	for i := range scores {
		scores[i] = float64(10 - i)
	}
	counts, err := Buckets(scores, []int32{0, 1, 9}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Buckets of 2: nodes 0,1 in bucket 0; node 9 in bucket 4.
	want := []int{2, 0, 0, 0, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, counts[i], want[i], counts)
		}
	}
}

func TestBucketsErrors(t *testing.T) {
	scores := linalg.Vector{1, 2}
	if _, err := Buckets(scores, nil, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Buckets(scores, nil, 3); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := Buckets(scores, []int32{5}, 2); err == nil {
		t.Error("bad marked node accepted")
	}
}

func TestBucketsTotalPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	scores := make(linalg.Vector, 103)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	marked := []int32{1, 5, 50, 100, 102}
	counts, err := Buckets(scores, marked, 20)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != len(marked) {
		t.Errorf("bucket sum = %d, want %d", sum, len(marked))
	}
}

func TestBottomHalf(t *testing.T) {
	scores := linalg.Vector{4, 3, 2, 1}
	bh := BottomHalf(scores)
	if len(bh) != 2 || bh[0] != 2 || bh[1] != 3 {
		t.Errorf("bottom half = %v", bh)
	}
}

func TestKendallTauIdentical(t *testing.T) {
	a := linalg.Vector{3, 1, 2}
	tau, err := KendallTau(a, a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tau-1) > 1e-12 {
		t.Errorf("tau = %v, want 1", tau)
	}
}

func TestKendallTauReversed(t *testing.T) {
	a := linalg.Vector{1, 2, 3, 4}
	b := linalg.Vector{4, 3, 2, 1}
	tau, err := KendallTau(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tau+1) > 1e-12 {
		t.Errorf("tau = %v, want -1", tau)
	}
}

func TestKendallTauMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		a := make(linalg.Vector, n)
		b := make(linalg.Vector, n)
		for i := 0; i < n; i++ {
			a[i] = rng.Float64()
			b[i] = rng.Float64()
		}
		fast, err := KendallTau(a, b)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force over pairs using the same deterministic ranks.
		ra, rb := Ranks(a), Ranks(b)
		var concordant, discordant int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				sa := ra[i] - ra[j]
				sb := rb[i] - rb[j]
				if sa*sb > 0 {
					concordant++
				} else {
					discordant++
				}
			}
		}
		slow := float64(concordant-discordant) / (float64(n) * float64(n-1) / 2)
		if math.Abs(fast-slow) > 1e-12 {
			t.Fatalf("trial %d: fast %v != slow %v", trial, fast, slow)
		}
	}
}

func TestTopKOverlap(t *testing.T) {
	a := linalg.Vector{10, 9, 1, 2}
	b := linalg.Vector{10, 1, 9, 2}
	ov, err := TopKOverlap(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	// a's top2 = {0,1}; b's top2 = {0,2}: overlap 1/2.
	if ov != 0.5 {
		t.Errorf("overlap = %v, want 0.5", ov)
	}
	if _, err := TopKOverlap(a, b, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := TopKOverlap(a, linalg.Vector{1}, 1); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestMeanPercentileOf(t *testing.T) {
	scores := linalg.Vector{4, 3, 2, 1}
	mp, err := MeanPercentileOf(scores, []int32{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Node 0: 75; node 3: 0 -> mean 37.5.
	if math.Abs(mp-37.5) > 1e-12 {
		t.Errorf("mean percentile = %v, want 37.5", mp)
	}
	if _, err := MeanPercentileOf(scores, nil); err == nil {
		t.Error("empty marked set accepted")
	}
	if _, err := MeanPercentileOf(scores, []int32{9}); err == nil {
		t.Error("bad marked node accepted")
	}
}

// Property: Kendall τ is symmetric and bounded in [-1, 1].
func TestQuickKendallTauProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		a := make(linalg.Vector, n)
		b := make(linalg.Vector, n)
		for i := 0; i < n; i++ {
			a[i] = rng.Float64()
			b[i] = rng.Float64()
		}
		t1, err1 := KendallTau(a, b)
		t2, err2 := KendallTau(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		if t1 < -1-1e-12 || t1 > 1+1e-12 {
			return false
		}
		return math.Abs(t1-t2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: percentiles of all nodes average to just under 50.
func TestQuickPercentileMean(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		scores := make(linalg.Vector, n)
		for i := range scores {
			scores[i] = rng.Float64()
		}
		var sum float64
		for i := 0; i < n; i++ {
			p, err := Percentile(scores, i)
			if err != nil {
				return false
			}
			sum += p
		}
		mean := sum / float64(n)
		want := 100 * float64(n-1) / (2 * float64(n))
		return math.Abs(mean-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
