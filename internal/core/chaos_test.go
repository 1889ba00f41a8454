package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sourcerank/internal/faultfs"
)

// TestChaosKillResumeConverges is the deterministic chaos harness of the
// resilience layer: the checkpointed solve is killed by an injected
// crash after a random number of written bytes — landing at arbitrary
// iterations and arbitrary offsets inside a checkpoint commit — then
// restarted on a healed disk, over and over until it completes. The
// final vector must match an uninterrupted solve to 1e-12 (the iterate
// sequence is in fact reproduced bit for bit), and every restart must
// tolerate whatever torn temp files and partial state the previous
// death left behind.
func TestChaosKillResumeConverges(t *testing.T) {
	sg := buildSG(t, corpus(t))
	kappa := testKappa(sg.NumSources())
	ref, err := Rank(sg, kappa, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Stats.Converged {
		t.Fatal("reference solve did not converge")
	}

	for _, seed := range []int64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			ffs := faultfs.New(nil)
			ck := CheckpointConfig{Dir: dir, Every: 5, FS: ffs}

			var res *Result
			resumed := false
			const maxRestarts = 60
			attempt := 0
			for ; attempt < maxRestarts; attempt++ {
				// Each attempt models a fresh process on a healed disk
				// that will die again after a random write budget; late
				// attempts run fault-free so the loop always terminates.
				if attempt < 40 {
					// Budgets stay below one run's total checkpoint bytes,
					// so fault-armed attempts always die mid-solve.
					ffs.SetWriteBudget(int64(1 + rng.Intn(600)))
				} else {
					ffs.Heal()
				}
				r, info, err := rank(sg, kappa, Config{}, &ck)
				if err != nil {
					if !errors.Is(err, faultfs.ErrCrash) {
						t.Fatalf("attempt %d: non-crash failure: %v", attempt, err)
					}
					continue
				}
				if info.ResumedFrom > 0 {
					resumed = true
				}
				res = r
				break
			}
			if res == nil {
				t.Fatalf("solve never completed in %d restarts", maxRestarts)
			}
			if ffs.Crashes() == 0 {
				t.Fatal("no crash was ever injected; the harness tested nothing")
			}
			if !resumed {
				t.Fatal("final run never resumed from a checkpoint")
			}
			if !res.Stats.Converged {
				t.Fatal("chaos run did not converge")
			}
			var maxDiff float64
			for i := range ref.Scores {
				if d := math.Abs(res.Scores[i] - ref.Scores[i]); d > maxDiff {
					maxDiff = d
				}
			}
			if maxDiff > 1e-12 {
				t.Fatalf("kill/resume result diverged: max |Δ| = %.3e > 1e-12", maxDiff)
			}
			t.Logf("restarts=%d crashes=%d max|Δ|=%.1e", attempt, ffs.Crashes(), maxDiff)
		})
	}
}
