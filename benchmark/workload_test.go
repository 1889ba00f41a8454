package main

import (
	"encoding/json"
	"regexp"
	"slices"
	"testing"
)

const (
	specFile  = "../BENCHMARK.json"
	testScale = 0.005
)

func testConfig(t *testing.T, workload string, traced bool) config {
	cfg := config{Workload: workload, Seed: 1, Scale: testScale, Seconds: 0.3, Workers: 2, Dir: t.TempDir(),
		Traced: traced, RooflineMaxBytes: 4 << 20, KernelInts: 1 << 10}
	if workload == "serve_under_refresh" {
		cfg.Seconds = 1.5 // its publisher ticks every 250 ms and both phases need publishes
	}
	return cfg
}

// TestChurnClasses pins what each churn class does to the consensus
// matrix, which is what makes the three classes different workloads.
func TestChurnClasses(t *testing.T) {
	f, _, err := newDeltaFleet(testConfig(t, "delta_refresh", false))
	if err != nil {
		t.Fatal(err)
	}
	cycle := func(class string) (before, after *sourceGraph, st refreshStats) {
		before = emitSourceGraph(f.pipe)
		res, err := f.cycle(untracedOp(class), f.churn.batch(class, f.links))
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		return before, emitSourceGraph(f.pipe), res.stats
	}

	v0 := structureVersion(f.pipe)
	before, after, st := cycle("recrawl")
	if structureVersion(f.pipe) != v0 {
		t.Error("recrawl moved StructureVersion")
	}
	if !sameSourceGraph(before, after) {
		t.Error("recrawl changed the consensus matrix")
	}
	if !st.SolveSkipped || !st.PageRankSkipped || !st.TrustRankSkipped {
		t.Errorf("recrawl refresh did not skip every solve: %+v", st)
	}

	before, after, st = cycle("drift")
	if structureVersion(f.pipe) != v0 {
		t.Error("drift moved StructureVersion")
	}
	if !slices.Equal(before.Counts.RowPtr, after.Counts.RowPtr) || !slices.Equal(before.Counts.Cols, after.Counts.Cols) {
		t.Error("drift changed the sparsity of the consensus matrix")
	}
	if slices.Equal(before.Counts.Vals, after.Counts.Vals) {
		t.Error("drift left every consensus count unchanged")
	}
	if st.SolveSkipped || !st.PageRankSkipped || !st.TrustRankSkipped {
		t.Errorf("drift should re-solve SRSR only: %+v", st)
	}

	_, _, st = cycle("rewire")
	if structureVersion(f.pipe) == v0 {
		t.Error("rewire left StructureVersion unchanged")
	}
	if st.SolveSkipped || st.PageRankSkipped || st.TrustRankSkipped {
		t.Errorf("rewire should run every solve: %+v", st)
	}
}

// TestSmoke runs every workload once untraced and once traced at a tiny
// scale and checks the result line against BENCHMARK.json: every declared
// metric printed exactly once, in the declared unit, nothing undeclared,
// no failed operation.
func TestSmoke(t *testing.T) {
	sp, err := readSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/untraced"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				r := newRun(testConfig(t, w.Name, traced))
				if err := workloads[w.Name](r); err != nil {
					t.Fatal(err)
				}
				rep := r.rep
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("attempted %d failed %d correct %v checks %+v", rep.Attempted, rep.Failed, rep.Correct, rep.Checks)
				}
				line, err := resultLine(sp, rep)
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(line), &got); err != nil {
					t.Fatal(err)
				}
				declared := sp.EndToEnd
				if traced {
					declared = sp.PerLayer
				}
				if len(got.Metrics) != len(declared) {
					t.Errorf("%d metrics printed, %d declared", len(got.Metrics), len(declared))
				}
				for _, d := range declared {
					m, ok := got.Metrics[d.Name]
					if !ok {
						t.Errorf("%s not printed", d.Name)
					} else if m.Unit != d.Unit {
						t.Errorf("%s printed in %q, declared in %q", d.Name, m.Unit, d.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, must never be 0", d.Name, m.Value)
					}
				}
				if traced {
					if got.Metrics["fail_ratio"].Value != 0 {
						t.Errorf("fail_ratio = %g", got.Metrics["fail_ratio"].Value)
					}
					if len(rep.CriticalPath) == 0 {
						t.Error("traced run without a critical path")
					}
					for _, p := range rep.CriticalPath {
						if p.SelfSum < 0.95 || p.SelfSum > 1.05 {
							t.Errorf("class %s: layer self times sum to %.3f of the operation time", p.Class, p.SelfSum)
						}
					}
				}
			})
		}
	}
}

// TestSpecMatchesTheCode checks BENCHMARK.json against the workload
// registry and against the limits of the benchmark contract.
func TestSpecMatchesTheCode(t *testing.T) {
	sp, err := readSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s declared but not implemented", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("spec declares %v, code implements %d workloads", names, len(workloads))
	}

	// The limits of the benchmark contract.
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(slices.Clone(sp.EndToEnd), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q outside the contract's alphabet", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s in seconds, lower is better")
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 || len(sp.Paths) != 1 || sp.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", sp.RunSeconds, sp.Paths)
	}
}
