package analysis

import (
	"errors"
	"math"
	"testing"
)

func TestCostModelValidate(t *testing.T) {
	if err := DefaultCosts.Validate(); err != nil {
		t.Errorf("default costs invalid: %v", err)
	}
	bad := CostModel{PageCost: 0, SourceCost: 1, HijackCost: 1}
	if err := bad.Validate(); !errors.Is(err, ErrParam) {
		t.Error("zero page cost accepted")
	}
}

func TestScenarioCost(t *testing.T) {
	c := CostModel{PageCost: 1, SourceCost: 50, HijackCost: 200}
	cases := []struct {
		sc   Scenario
		tau  int
		want float64
	}{
		{Scenario1, 100, 100},  // pages only
		{Scenario2, 100, 150},  // one source + pages
		{Scenario2, 0, 0},      // nothing mounted
		{Scenario3, 100, 5100}, // source per page
		{Scenario1, 0, 0},
	}
	for _, cse := range cases {
		got, err := c.ScenarioCost(cse.sc, cse.tau)
		if err != nil {
			t.Fatalf("%v τ=%d: %v", cse.sc, cse.tau, err)
		}
		if got != cse.want {
			t.Errorf("%v τ=%d: cost %v, want %v", cse.sc, cse.tau, got, cse.want)
		}
	}
	if _, err := c.ScenarioCost(Scenario1, -1); !errors.Is(err, ErrParam) {
		t.Error("negative tau accepted")
	}
	if _, err := c.ScenarioCost(Scenario(9), 1); !errors.Is(err, ErrParam) {
		t.Error("unknown scenario accepted")
	}
}

func TestScenarioROIDecreasesWithKappa(t *testing.T) {
	prev := math.Inf(1)
	for _, kappa := range []float64{0, 0.3, 0.6, 0.9, 0.99} {
		roi, err := ScenarioROI(Scenario3, 0.85, 100, kappa, 10000, DefaultCosts)
		if err != nil {
			t.Fatal(err)
		}
		if roi >= prev {
			t.Errorf("ROI not decreasing at κ=%v: %v >= %v", kappa, roi, prev)
		}
		prev = roi
	}
	// Fully throttled colluders yield zero gain.
	roi, _ := ScenarioROI(Scenario3, 0.85, 100, 1, 10000, DefaultCosts)
	if roi != 0 {
		t.Errorf("ROI at κ=1 is %v, want 0", roi)
	}
}

func TestScenarioROIScenarioOrdering(t *testing.T) {
	// Per unit effort, scenario 1 (cheap pages) buys nothing at all in
	// SRSR, while scenario 3 buys influence at a steep per-source price.
	r1, err := ScenarioROI(Scenario1, 0.85, 100, 0, 10000, DefaultCosts)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != 0 {
		t.Errorf("scenario 1 ROI = %v, want 0 (intra-source links absorbed)", r1)
	}
	r3, _ := ScenarioROI(Scenario3, 0.85, 100, 0, 10000, DefaultCosts)
	if r3 <= 0 {
		t.Errorf("scenario 3 ROI = %v, want > 0 at κ=0", r3)
	}
}

func TestScenarioROIErrors(t *testing.T) {
	if _, err := ScenarioROI(Scenario3, 0.85, 1, 0, 0, DefaultCosts); !errors.Is(err, ErrParam) {
		t.Error("zero sources accepted")
	}
	bad := CostModel{}
	if _, err := ScenarioROI(Scenario3, 0.85, 1, 0, 100, bad); !errors.Is(err, ErrParam) {
		t.Error("invalid cost model accepted")
	}
}

func TestBreakEvenKappa(t *testing.T) {
	// Choose a threshold strictly between ROI(κ=0) and 0: bisection must
	// find an interior κ where ROI crosses it.
	roi0, err := ScenarioROI(Scenario3, 0.85, 100, 0, 10000, DefaultCosts)
	if err != nil {
		t.Fatal(err)
	}
	thresh := roi0 / 4
	kappa, err := BreakEvenKappa(0.85, 100, thresh, 10000, DefaultCosts)
	if err != nil {
		t.Fatal(err)
	}
	if kappa <= 0 || kappa >= 1 {
		t.Fatalf("break-even κ = %v, want interior", kappa)
	}
	at, _ := ScenarioROI(Scenario3, 0.85, 100, kappa, 10000, DefaultCosts)
	if math.Abs(at-thresh)/thresh > 1e-6 {
		t.Errorf("ROI at break-even κ = %v, want %v", at, thresh)
	}
	// Threshold above ROI(0): break-even is 0.
	k0, err := BreakEvenKappa(0.85, 100, roi0*2, 10000, DefaultCosts)
	if err != nil {
		t.Fatal(err)
	}
	if k0 != 0 {
		t.Errorf("break-even for unreachable threshold = %v, want 0", k0)
	}
	if _, err := BreakEvenKappa(0.85, 100, -1, 10000, DefaultCosts); !errors.Is(err, ErrParam) {
		t.Error("negative threshold accepted")
	}
}
