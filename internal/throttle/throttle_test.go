package throttle

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
)

func mustCSR(t *testing.T, n int, entries []linalg.Entry) *linalg.CSR {
	t.Helper()
	m, err := linalg.NewCSR(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestValidateKappa(t *testing.T) {
	if err := Validate([]float64{0, 0.5, 1}, 3); err != nil {
		t.Errorf("valid kappa rejected: %v", err)
	}
	if err := Validate([]float64{0}, 2); !errors.Is(err, ErrKappa) {
		t.Error("length mismatch accepted")
	}
	if err := Validate([]float64{1.5}, 1); !errors.Is(err, ErrKappa) {
		t.Error("kappa > 1 accepted")
	}
	if err := Validate([]float64{-0.1}, 1); !errors.Is(err, ErrKappa) {
		t.Error("negative kappa accepted")
	}
	if err := Validate([]float64{math.NaN()}, 1); !errors.Is(err, ErrKappa) {
		t.Error("NaN kappa accepted")
	}
}

func TestApplyRaisesSelfEdge(t *testing.T) {
	// Source 0: self 0.2, edge to 1 with 0.8. Throttle κ0 = 0.5.
	m := mustCSR(t, 2, []linalg.Entry{
		{Row: 0, Col: 0, Val: 0.2}, {Row: 0, Col: 1, Val: 0.8},
		{Row: 1, Col: 1, Val: 1},
	})
	out, err := Apply(m, []float64{0.5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.At(0, 0); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("T''[0,0] = %v, want 0.5", got)
	}
	if got := out.At(0, 1); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("T''[0,1] = %v, want 0.5 (rescaled)", got)
	}
	if !out.IsRowStochastic(1e-12) {
		t.Error("result not row-stochastic")
	}
}

func TestApplyLeavesSatisfiedRows(t *testing.T) {
	m := mustCSR(t, 2, []linalg.Entry{
		{Row: 0, Col: 0, Val: 0.7}, {Row: 0, Col: 1, Val: 0.3},
		{Row: 1, Col: 0, Val: 1},
	})
	out, err := Apply(m, []float64{0.5, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 already has self-weight 0.7 >= 0.5: untouched.
	if got := out.At(0, 0); got != 0.7 {
		t.Errorf("T''[0,0] = %v, want 0.7", got)
	}
	if got := out.At(0, 1); got != 0.3 {
		t.Errorf("T''[0,1] = %v, want 0.3", got)
	}
	// Row 1 has κ=0 and self-weight 0 >= 0: untouched.
	if got := out.At(1, 0); got != 1 {
		t.Errorf("T''[1,0] = %v, want 1", got)
	}
}

func TestApplyFullThrottle(t *testing.T) {
	m := mustCSR(t, 3, []linalg.Entry{
		{Row: 0, Col: 0, Val: 0.0}, {Row: 0, Col: 1, Val: 0.6}, {Row: 0, Col: 2, Val: 0.4},
		{Row: 1, Col: 1, Val: 1},
		{Row: 2, Col: 2, Val: 1},
	})
	out, err := Apply(m, []float64{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.At(0, 0); got != 1 {
		t.Errorf("fully throttled self = %v, want 1", got)
	}
	if got := out.At(0, 1); got != 0 {
		t.Errorf("fully throttled out-edge = %v, want 0", got)
	}
	if got := out.At(0, 2); got != 0 {
		t.Errorf("fully throttled out-edge = %v, want 0", got)
	}
}

func TestApplyProportionalRescale(t *testing.T) {
	// Off-diagonal weights 0.6 / 0.2 (ratio 3:1) with self 0.2, κ = 0.6.
	m := mustCSR(t, 3, []linalg.Entry{
		{Row: 0, Col: 0, Val: 0.2}, {Row: 0, Col: 1, Val: 0.6}, {Row: 0, Col: 2, Val: 0.2},
		{Row: 1, Col: 1, Val: 1},
		{Row: 2, Col: 2, Val: 1},
	})
	out, err := Apply(m, []float64{0.6, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Remaining 0.4 split 3:1 -> 0.3 and 0.1.
	if got := out.At(0, 1); math.Abs(got-0.3) > 1e-15 {
		t.Errorf("T''[0,1] = %v, want 0.3", got)
	}
	if got := out.At(0, 2); math.Abs(got-0.1) > 1e-15 {
		t.Errorf("T''[0,2] = %v, want 0.1", got)
	}
}

func TestApplyEmptyAndSelfOnlyRows(t *testing.T) {
	m := mustCSR(t, 2, []linalg.Entry{
		{Row: 1, Col: 1, Val: 0.4}, // self-only row that is sub-stochastic
	})
	out, err := Apply(m, []float64{0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 is structurally empty -> pure self-loop.
	if got := out.At(0, 0); got != 1 {
		t.Errorf("empty row self = %v, want 1", got)
	}
	// Row 1 has no off-diagonal mass -> pure self-loop.
	if got := out.At(1, 1); got != 1 {
		t.Errorf("self-only row = %v, want 1", got)
	}
}

func TestApplyRejectsBadInput(t *testing.T) {
	m := mustCSR(t, 2, nil)
	if _, err := Apply(m, []float64{0.5}); !errors.Is(err, ErrKappa) {
		t.Error("short kappa accepted")
	}
	rect, err := linalg.NewCSR(2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(rect, []float64{0, 0}); err == nil {
		t.Error("non-square matrix accepted")
	}
}

// Property: Apply preserves row-stochasticity and enforces the diagonal
// minimum for any stochastic input and κ vector.
func TestQuickApplyInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		var entries []linalg.Entry
		for i := 0; i < n; i++ {
			deg := 1 + rng.Intn(4)
			if deg > n {
				deg = n
			}
			seen := map[int]bool{i: true} // always include self-edge
			for len(seen) < deg {
				seen[rng.Intn(n)] = true
			}
			// Random weights, normalized. Self-edge may be zero.
			var total float64
			ws := map[int]float64{}
			for j := range seen {
				w := rng.Float64()
				if j == i && rng.Float64() < 0.5 {
					w = 0
				}
				ws[j] = w
				total += w
			}
			if total == 0 {
				ws[i] = 1
				total = 1
			}
			for j, w := range ws {
				entries = append(entries, linalg.Entry{Row: i, Col: j, Val: w / total})
			}
		}
		m, err := linalg.NewCSR(n, n, entries)
		if err != nil {
			return false
		}
		kappa := make([]float64, n)
		for i := range kappa {
			kappa[i] = rng.Float64()
		}
		out, err := Apply(m, kappa)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if s := out.RowSum(i); math.Abs(s-1) > 1e-9 {
				return false
			}
			if out.At(i, i) < kappa[i]-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// chainStructure builds sources 0 -> 1 -> 2 -> 3 (a forward link chain).
func chainStructure() *graph.Graph {
	return graph.FromAdjacency([][]int32{{1}, {2}, {3}, {}})
}

func TestSpamProximityOrdering(t *testing.T) {
	// Spam seed is source 3 (the chain's sink). Proximity must decrease
	// with forward distance to the seed: 3 > 2 > 1 > 0.
	prox, st, err := SpamProximity(chainStructure(), []int32{3}, ProximityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("not converged: %+v", st)
	}
	if !(prox[3] > prox[2] && prox[2] > prox[1] && prox[1] > prox[0]) {
		t.Errorf("proximity not ordered by distance to spam: %v", prox)
	}
	if math.Abs(prox.Norm1()-1) > 1e-8 {
		t.Errorf("proximity sums to %v, want 1", prox.Norm1())
	}
}

func TestSpamProximityUnreachable(t *testing.T) {
	// Source 2 has no path to the seed; its proximity must be (near) zero.
	g := graph.FromAdjacency([][]int32{{1}, {}, {}})
	prox, _, err := SpamProximity(g, []int32{1}, ProximityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if prox[2] > 1e-12 {
		t.Errorf("unreachable source has proximity %v", prox[2])
	}
	if prox[0] <= 0 {
		t.Errorf("linking source has zero proximity")
	}
}

func TestSpamProximityErrors(t *testing.T) {
	g := chainStructure()
	if _, _, err := SpamProximity(g, nil, ProximityOptions{}); err == nil {
		t.Error("empty seed set accepted")
	}
	if _, _, err := SpamProximity(g, []int32{99}, ProximityOptions{}); err == nil {
		t.Error("out-of-range seed accepted")
	}
	empty := graph.NewBuilder(0).Build()
	if _, _, err := SpamProximity(empty, []int32{0}, ProximityOptions{}); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestTopK(t *testing.T) {
	prox := linalg.Vector{0.1, 0.5, 0.3, 0.5}
	kappa := TopK(prox, 2)
	if kappa[1] != 1 || kappa[3] != 1 {
		t.Errorf("top-2 wrong: %v", kappa)
	}
	if kappa[0] != 0 || kappa[2] != 0 {
		t.Errorf("non-top entries throttled: %v", kappa)
	}
}

func TestTopKClamps(t *testing.T) {
	prox := linalg.Vector{0.1, 0.2}
	if k := TopK(prox, 10); k[0] != 1 || k[1] != 1 {
		t.Errorf("k > n not clamped: %v", k)
	}
	if k := TopK(prox, -1); k[0] != 0 || k[1] != 0 {
		t.Errorf("negative k not clamped: %v", k)
	}
}

func TestGraded(t *testing.T) {
	prox := linalg.Vector{0.4, 0.2, 0.1, 0}
	kappa := Graded(prox, 1, 0.8)
	if kappa[0] != 1 {
		t.Errorf("top source not fully throttled: %v", kappa)
	}
	// Source 1 has half the threshold score -> κ = 0.2/0.4*0.8 = 0.4.
	if math.Abs(kappa[1]-0.4) > 1e-12 {
		t.Errorf("graded kappa[1] = %v, want 0.4", kappa[1])
	}
	if kappa[3] != 0 {
		t.Errorf("zero-proximity source throttled: %v", kappa[3])
	}
	for i, k := range kappa {
		if k < 0 || k > 1 {
			t.Errorf("kappa[%d] = %v outside [0,1]", i, k)
		}
	}
}

func TestGradedDegeneratesToTopK(t *testing.T) {
	prox := linalg.Vector{0.4, 0.2}
	if k := Graded(prox, 0, 0.5); k[0] != 0 || k[1] != 0 {
		t.Errorf("k=0 should throttle nothing: %v", k)
	}
	if k := Graded(prox, 2, 0.5); k[0] != 1 || k[1] != 1 {
		t.Errorf("k=n should throttle everything: %v", k)
	}
}

// TestDefaultTopK pins the paper's 2.7 % cut at source counts where the
// rounding decides it: 0.027n has a fractional part of .194, .967 and .902
// at UK2002 ×0.1, at ×1 and at WB2001's 738,626, so rounding to nearest
// gives these values and rounding with − 0.5 one less each.
func TestDefaultTopK(t *testing.T) {
	for n, want := range map[int]int{9_822: 265, 98_221: 2_652, 738_626: 19_943} {
		if got := DefaultTopK(n); got != want {
			t.Errorf("DefaultTopK(%d) = %d, want %d", n, got, want)
		}
	}
}
