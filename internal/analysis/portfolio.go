package analysis

import "fmt"

// The paper's conclusion sketches its future work: "developing a model of
// spammer behavior, including new metrics for the effectiveness of
// link-based manipulation ... to evaluate the relative impact on the
// value of a spammer's portfolio of sources." This file implements that
// model: a cost model for the attack primitives and the
// return-on-investment of each §4 scenario as a function of the
// throttling factor.

// CostModel prices the spammer's attack primitives in abstract effort
// units. The defaults reflect the paper's qualitative ordering: creating
// a page on owned infrastructure is cheap, registering a fresh source
// (domain + hosting) is much more expensive, and hijacking a page of a
// legitimate site is the most expensive primitive (it requires finding
// and exploiting a vulnerability).
type CostModel struct {
	PageCost   float64 // creating one spam page on an owned source
	SourceCost float64 // standing up one new colluding source
	HijackCost float64 // capturing one page of a legitimate source
}

// DefaultCosts is the cost model used by the ROI experiment.
var DefaultCosts = CostModel{PageCost: 1, SourceCost: 50, HijackCost: 200}

// Validate rejects non-positive prices.
func (c CostModel) Validate() error {
	if c.PageCost <= 0 || c.SourceCost <= 0 || c.HijackCost <= 0 {
		return fmt.Errorf("%w: cost model %+v must be positive", ErrParam, c)
	}
	return nil
}

// ScenarioCost returns the total effort to mount the §4.3 scenario with
// τ colluding pages.
func (c CostModel) ScenarioCost(sc Scenario, tau int) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if tau < 0 {
		return 0, fmt.Errorf("%w: tau = %d", ErrParam, tau)
	}
	t := float64(tau)
	switch sc {
	case Scenario1:
		// Pages inside the already-owned target source.
		return t * c.PageCost, nil
	case Scenario2:
		// One new colluding source plus its pages.
		if tau == 0 {
			return 0, nil
		}
		return c.SourceCost + t*c.PageCost, nil
	case Scenario3:
		// One new source per page.
		return t * (c.SourceCost + c.PageCost), nil
	default:
		return 0, fmt.Errorf("%w: unknown scenario %d", ErrParam, int(sc))
	}
}

// ScenarioROI returns the spammer's return on investment for a scenario:
// the SRSR score gained by the target source per unit of attack effort,
// normalized so ROI is 1 for scenario 1 at τ=1, κ=0 under DefaultCosts.
// Influence throttling is the denominator's lever: raising κ shrinks the
// numerator while the cost stays fixed, which is exactly the "raises the
// cost of rank manipulation" claim quantified.
func ScenarioROI(sc Scenario, alpha float64, tau int, kappa float64, numSources int, costs CostModel) (float64, error) {
	if numSources <= 0 {
		return 0, fmt.Errorf("%w: numSources = %d", ErrParam, numSources)
	}
	base, err := OptimalSingleSourceScore(alpha, 0, numSources)
	if err != nil {
		return 0, err
	}
	factor, err := SRSRGainFactor(sc, alpha, tau, kappa)
	if err != nil {
		return 0, err
	}
	cost, err := costs.ScenarioCost(sc, tau)
	if err != nil {
		return 0, err
	}
	if cost == 0 {
		return 0, nil
	}
	gain := base * (factor - 1)
	// Normalize by the per-unit-score cost scale so the numbers are
	// comparable across |S|.
	return gain / cost * float64(numSources), nil
}

// BreakEvenKappa returns the throttling factor at which scenario 3's ROI
// falls below the given threshold for a fixed τ, found by bisection over
// κ ∈ [0, 1). It returns 1 if even κ→1 leaves ROI above the threshold
// (cannot happen for positive thresholds since the gain vanishes), and 0
// if ROI is already below the threshold at κ = 0.
func BreakEvenKappa(alpha float64, tau int, threshold float64, numSources int, costs CostModel) (float64, error) {
	if threshold <= 0 {
		return 0, fmt.Errorf("%w: threshold must be positive", ErrParam)
	}
	at := func(kappa float64) (float64, error) {
		return ScenarioROI(Scenario3, alpha, tau, kappa, numSources, costs)
	}
	lo, hi := 0.0, 1.0
	r0, err := at(lo)
	if err != nil {
		return 0, err
	}
	if r0 <= threshold {
		return 0, nil
	}
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		r, err := at(mid)
		if err != nil {
			return 0, err
		}
		if r > threshold {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
