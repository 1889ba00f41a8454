package linalg

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// adviseCall is one call a recAdviser saw.
type adviseCall struct {
	release bool // Release, else AdviseWillNeed
	off, n  int64
}

// recAdviser records the advise calls a slabResidency issues.
type recAdviser struct {
	mu    sync.Mutex
	calls []adviseCall
}

func (a *recAdviser) AdviseWillNeed(off, n int64) { a.record(adviseCall{false, off, n}) }
func (a *recAdviser) Release(off, n int64)        { a.record(adviseCall{true, off, n}) }

func (a *recAdviser) record(c adviseCall) {
	a.mu.Lock()
	a.calls = append(a.calls, c)
	a.mu.Unlock()
}

func (a *recAdviser) drain() []adviseCall {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.calls
	a.calls = nil
	return out
}

// The residency fixture: 64 equal stripes of 4096 entries, float64
// values, sections at made-up offsets. Equal stripes make the nominal
// stripe exact, so window sizes and call sequences can be stated exactly.
const (
	resStripes = 64
	resStripe  = 4096
	resNNZ     = resStripes * resStripe
	resRows    = 1 << 14
	resColsOff = 1 << 20
	resValsOff = 1 << 24
	resEntryW  = 12
	resDense   = 2 * 8 * resRows
)

// residencyFixture returns a controller over a recorder whose budget
// gives a denseBytes = resDense consumer a window of k stripes (k <= 0:
// less than one stripe of leftover).
func residencyFixture(t *testing.T, k int) (*slabResidency, *recAdviser) {
	t.Helper()
	if got := stripeCountFor(resNNZ, resRows); got != resStripes {
		t.Fatalf("fixture assumes %d stripes, stripeCountFor gives %d", resStripes, got)
	}
	h := slabHeader{rows: resRows, nnz: resNNZ, colsOff: resColsOff, valsOff: resValsOff,
		rowPtr: make([]byte, 8*(resRows+1))}
	budget := int64(len(h.rowPtr)) + resDense + 4*int64(k)*resStripe*resEntryW + 7
	adv := &recAdviser{}
	return newSlabResidency(adv, h, budget), adv
}

// sectionRanges splits the Release calls among calls into the entry
// ranges released from the Cols and from the Vals section.
func sectionRanges(t *testing.T, calls []adviseCall) (cols, vals []entryRange) {
	t.Helper()
	for _, c := range calls {
		switch {
		case !c.release:
		case c.off >= resValsOff:
			vals = append(vals, entryRange{(c.off - resValsOff) / 8, (c.off - resValsOff + c.n) / 8})
		default:
			cols = append(cols, entryRange{(c.off - resColsOff) / 4, (c.off - resColsOff + c.n) / 4})
		}
	}
	return cols, vals
}

// tilesOnce fails unless rs covers [0, resNNZ) with no entry twice.
func tilesOnce(t *testing.T, name string, rs []entryRange) {
	t.Helper()
	slices.SortFunc(rs, func(a, b entryRange) int { return int(a.lo - b.lo) })
	var at int64
	for _, r := range rs {
		if r.lo != at || r.hi <= r.lo {
			t.Fatalf("%s: released range [%d,%d) after covering [0,%d): want every entry exactly once", name, r.lo, r.hi, at)
		}
		at = r.hi
	}
	if at != resNNZ {
		t.Fatalf("%s: releases cover [0,%d), want [0,%d)", name, at, resNNZ)
	}
}

// TestSlabResidencyWindow drives the release window the way a fused
// kernel does — stripes handed out in order to a pool, begun, finished in
// whatever order the scheduler produces, then endPass — and checks the
// accounting against a recording adviser.
func TestSlabResidencyWindow(t *testing.T) {
	for _, k := range []int{0, 1, 3, 8} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("window=%d/workers=%d", k, workers), func(t *testing.T) {
				res, adv := residencyFixture(t, k)
				win := res.newWindow(resDense)
				wantWindow := int64(max(k, 1)) * resStripe
				if win == nil || win.entries != wantWindow || res.snapshot().WindowBytes != wantWindow*resEntryW {
					t.Fatalf("window = %+v (reported %d bytes), want %d entries", win, res.snapshot().WindowBytes, wantWindow)
				}
				rng := rand.New(rand.NewSource(int64(100*k + workers)))
				for pass := 0; pass < 3; pass++ {
					yields := make([]int, resStripes)
					for s := range yields {
						yields[s] = rng.Intn(4 * workers)
					}
					work := make(chan int, resStripes)
					for s := 0; s < resStripes; s++ {
						work <- s
					}
					close(work)
					var wg sync.WaitGroup
					for i := 0; i < workers; i++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for s := range work {
								lo, hi := int64(s)*resStripe, int64(s+1)*resStripe
								win.begin(hi)
								for y := 0; y < yields[s]; y++ {
									runtime.Gosched() // shuffle the completion order
								}
								win.done(lo, hi)
								// (b) between reports, what is completed but
								// unreleased never exceeds one window.
								win.mu.Lock()
								n := win.pendingN
								win.mu.Unlock()
								if n > win.entries {
									t.Errorf("pass %d: %d entries pending after stripe %d, window is %d", pass, n, s, win.entries)
								}
							}
						}()
					}
					wg.Wait()
					win.endPass()

					// (c) nothing outlives the pass.
					if len(win.pending) != 0 || win.pendingN != 0 || win.started.Load() != 0 {
						t.Fatalf("pass %d: pending %v (%d entries), started %d after endPass",
							pass, win.pending, win.pendingN, win.started.Load())
					}
					// (a) every entry of both sections released exactly once.
					cols, vals := sectionRanges(t, adv.drain())
					tilesOnce(t, "cols", cols)
					tilesOnce(t, "vals", vals)
				}
				st := res.snapshot()
				if want := int64(3 * resNNZ * resEntryW); st.ReleasedBytes != want {
					t.Errorf("ReleasedBytes = %d, want %d (three passes)", st.ReleasedBytes, want)
				}
				if st.PrefetchedBytes <= 0 {
					t.Errorf("PrefetchedBytes = %d, want > 0", st.PrefetchedBytes)
				}
			})
		}
	}
}

// TestSlabResidencyWindowCalls pins the number and the order of advise
// calls on a deterministic schedule: stripe s finishes at time s plus a
// jitter below the worker count, and when i stripes have finished the
// first i+workers have been started — a pool's in-order hand-out with its
// completions shuffled by up to one round.
func TestSlabResidencyWindowCalls(t *testing.T) {
	runPass := func(win *releaseWindow, workers int, rng *rand.Rand) {
		order := make([]int, resStripes)
		at := make([]float64, resStripes)
		for s := range order {
			order[s] = s
			at[s] = float64(s) + rng.Float64()*float64(workers-1)
		}
		slices.SortFunc(order, func(a, b int) int {
			if at[a] < at[b] {
				return -1
			}
			return 1
		})
		for i, s := range order {
			win.begin(int64(min(i+workers, resStripes)) * resStripe)
			win.done(int64(s)*resStripe, int64(s+1)*resStripe)
		}
		win.endPass()
	}

	// (d) a pass costs at most 2·(ceil(entryBytes/window) + workers)
	// Release calls, however the completions are shuffled — for a window
	// of one stripe (one call set per stripe) or of at least as many
	// stripes as workers. A window in between cannot collect its stripes
	// below the ones still in flight and may split once per stripe.
	for _, k := range []int{1, 4, 5, 8, 13} {
		for _, workers := range []int{1, 2, 4} {
			res, adv := residencyFixture(t, k)
			win := res.newWindow(resDense)
			rng := rand.New(rand.NewSource(int64(7*k + workers)))
			for pass := 0; pass < 20; pass++ {
				runPass(win, workers, rng)
				cols, vals := sectionRanges(t, adv.drain())
				tilesOnce(t, "cols", cols)
				tilesOnce(t, "vals", vals)
				limit := 2 * ((resStripes+k-1)/k + workers)
				if got := len(cols) + len(vals); got > limit {
					t.Errorf("window=%d workers=%d pass %d: %d Release calls, want at most %d", k, workers, pass, got, limit)
				}
			}
		}
	}

	// (e) a budget that covers the entry section builds no window and
	// issues no call, at open or afterwards.
	res, adv := residencyFixture(t, resStripes)
	if win := res.newWindow(resDense); win != nil || res.own != nil {
		t.Errorf("whole-matrix budget built windows %+v / %+v, want none", win, res.own)
	}
	res.own.done(0, resNNZ)
	res.own.endPass()
	if calls := adv.drain(); len(calls) != 0 || res.snapshot().WindowBytes != resNNZ*resEntryW {
		t.Errorf("whole-matrix budget: %d advise calls, window %d bytes; want none and %d",
			len(calls), res.snapshot().WindowBytes, resNNZ*resEntryW)
	}

	// (f) less than one stripe of leftover: every stripe is released as
	// it completes, after the next stripe's worth is advised — the
	// per-stripe sequence this controller replaced, except that nothing
	// is advised past the end of a section.
	res, adv = residencyFixture(t, 0)
	runPass(res.newWindow(resDense), 1, rand.New(rand.NewSource(1)))
	var want []adviseCall
	for s := int64(0); s < resStripes; s++ {
		lo, hi := s*resStripe, (s+1)*resStripe
		if hi < resNNZ {
			want = append(want,
				adviseCall{false, resColsOff + 4*hi, 4 * resStripe},
				adviseCall{false, resValsOff + 8*hi, 8 * resStripe})
		}
		want = append(want,
			adviseCall{true, resColsOff + 4*lo, 4 * resStripe},
			adviseCall{true, resValsOff + 8*lo, 8 * resStripe})
	}
	if got := adv.drain(); !slices.Equal(got, want) {
		t.Errorf("per-stripe floor: %d advise calls, want the %d of one call set per stripe; first of each: %+v / %+v",
			len(got), len(want), got[:min(4, len(got))], want[:4])
	}
}

// TestSlabResidencyMerge covers the pending-range bookkeeping directly:
// reports that touch, overlap, repeat and arrive in any order.
func TestSlabResidencyMerge(t *testing.T) {
	res, adv := residencyFixture(t, 8)
	win := res.newWindow(resDense)
	for _, r := range []entryRange{{100, 200}, {300, 400}, {0, 50}, {200, 300}, {150, 350}, {40, 60}, {500, 500}, {9, 3}} {
		win.done(r.lo, r.hi)
	}
	want := []entryRange{{0, 60}, {100, 400}}
	if !slices.Equal(win.pending, want) || win.pendingN != 360 {
		t.Fatalf("pending = %v (%d entries), want %v (360)", win.pending, win.pendingN, want)
	}
	win.endPass()
	cols, _ := sectionRanges(t, adv.drain())
	if !slices.Equal(cols, want) {
		t.Fatalf("endPass released %v, want %v", cols, want)
	}
}
