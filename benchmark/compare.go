package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
)

// readReports reads a result set: one report per line, as -out appends
// them.
func readReports(path string) ([]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<28)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		rep := new(report)
		if err := json.Unmarshal(sc.Bytes(), rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rep)
	}
	return out, sc.Err()
}

// verdict compares the runs of set B with the runs of set A for one
// metric of one workload:
//
//	worse      B's median is worse than A's by more than the bound
//	unresolved the run-to-run spread of either set exceeds the bound, so
//	           a change of the bound's size cannot be seen — unless every
//	           run of one set beats every run of the other
//	better     B's median is better than A's by more than the distance
//	           between A's quartiles
//	within     none of the above
func verdict(a, b []float64, lowerIsBetter bool, bound float64) string {
	if !lowerIsBetter {
		neg := func(xs []float64) []float64 {
			out := make([]float64, len(xs))
			for i, x := range xs {
				out[i] = -x
			}
			return out
		}
		a, b = neg(a), neg(b)
	}
	ma, mb := median(a), median(b)
	scale := max(ma, -ma)
	if scale == 0 {
		return "unresolved"
	}
	worseBy := (mb - ma) / scale
	allWorse, allBetter := slices.Min(b) > slices.Max(a), slices.Max(b) < slices.Min(a)
	switch {
	case allWorse && worseBy > bound:
		return "worse"
	case max(spread(a), spread(b)) > bound:
		if allBetter {
			return "better"
		}
		return "unresolved"
	case worseBy > bound:
		return "worse"
	case -worseBy > spread(a):
		return "better"
	}
	return "within"
}

// compareMain implements `benchmark compare A B`: one row per workload
// and bounded metric; exit status 1 on any "worse" row or when B fails a
// larger share of its operations than A.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark's metric directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-spec BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var sets [2][]*report
	for i, path := range fs.Args() {
		if sets[i], err = readReports(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	status := 0
	fmt.Printf("%-20s %-14s %-6s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "better", "median_A", "median_B", "change", "spread_A", "spread_B", "bound", "verdict")
	for _, w := range sp.Workloads {
		var failRatio [2]float64
		values := [2]map[string][]float64{{}, {}}
		for i, set := range sets {
			attempted, failed := 0, 0
			for _, rep := range set {
				if rep.Workload != w.Name || rep.Traced {
					continue
				}
				attempted, failed = attempted+rep.Attempted, failed+rep.Failed
				for _, m := range rep.EndToEnd {
					values[i][m.Name] = append(values[i][m.Name], m.Value)
				}
			}
			failRatio[i] = float64(failed) / float64(max(attempted, 1))
		}
		for _, m := range sp.EndToEnd {
			a, b := values[0][m.Name], values[1][m.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("%-20s %-14s no untraced runs in one of the sets\n", w.Name, m.Name)
				status = 1
				continue
			}
			v := verdict(a, b, m.Better == "lower", m.Bound)
			if v == "worse" {
				status = 1
			}
			fmt.Printf("%-20s %-14s %-6s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s (n=%d,%d)\n", w.Name, m.Name, m.Better,
				median(a), median(b), 100*(median(b)-median(a))/median(a), 100*spread(a), 100*spread(b), 100*m.Bound, v, len(a), len(b))
		}
		if failRatio[1] > failRatio[0] {
			fmt.Printf("%-20s fail_ratio rose from %g to %g\n", w.Name, failRatio[0], failRatio[1])
			status = 1
		}
	}
	return status
}
