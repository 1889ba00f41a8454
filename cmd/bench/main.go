// Command bench runs the cold-path pipeline — synthetic graph generation,
// webgraph decode, source-graph aggregation, transpose, spam proximity,
// and the SRSR solve — on a pinned synthetic corpus, timing the serial
// reference implementation of each stage against the parallel one at
// several worker counts. Results are written as JSON (BENCH_pipeline.json
// by default) so successive commits can be compared.
//
// Every serial/parallel pair is also checked for bitwise-identical
// output; "identical": false in the report is a correctness bug, not a
// tolerance issue, because the parallel kernels are designed to be
// worker-count-invariant.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"sourcerank/internal/core"
	"sourcerank/internal/gen"
	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
	"sourcerank/internal/source"
	"sourcerank/internal/sysmem"
	"sourcerank/internal/throttle"
	"sourcerank/internal/webgraph"
)

// Schema identifies the report layout; bump on incompatible change.
const schema = "sourcerank/bench-pipeline/v1"

type graphInfo struct {
	Preset  string  `json:"preset"`
	Scale   float64 `json:"scale"`
	Seed    uint64  `json:"seed"`
	Pages   int     `json:"pages"`
	Links   int64   `json:"links"`
	Sources int     `json:"sources"`
}

type stageResult struct {
	Name            string  `json:"name"`
	Impl            string  `json:"impl"`
	Workers         int     `json:"workers"`
	NsPerOp         int64   `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
	// GBPerSec is the achieved memory throughput under the
	// compulsory-traffic model (see cmd/bench/bandwidth.go); only set for
	// stages whose traffic the model prices (multvec, solve).
	GBPerSec float64 `json:"gb_per_s,omitempty"`
}

type coldPath struct {
	SerialNs   int64   `json:"serial_ns"`
	ParallelNs int64   `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`
	Identical  bool    `json:"identical"`
}

type report struct {
	Schema     string        `json:"schema"`
	Go         string        `json:"go"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Graph      graphInfo     `json:"graph"`
	Stages     []stageResult `json:"stages"`
	ColdPath   coldPath      `json:"cold_path"`
	// MaxRSSBytes is the process peak resident set size at report time
	// (0 where the platform doesn't expose it), so memory trajectory is
	// tracked alongside ns/op across commits.
	MaxRSSBytes int64 `json:"max_rss_bytes"`
}

// peakRSS reads the process high-water mark for the bench reports,
// 0 where unsupported.
func peakRSS() int64 {
	peak, _ := sysmem.PeakRSSBytes()
	return peak
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// measure times fn with the testing benchmark driver and returns a filled
// stage row. The serial baseline ns for the same stage (0 for the
// baseline itself) yields the speedup column.
func measure(name, impl string, workers int, serialNs int64, fn func()) stageResult {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
	row := stageResult{
		Name:        name,
		Impl:        impl,
		Workers:     workers,
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
	if serialNs > 0 && row.NsPerOp > 0 {
		row.SpeedupVsSerial = float64(serialNs) / float64(row.NsPerOp)
	} else if serialNs == 0 {
		row.SpeedupVsSerial = 1
	}
	return row
}

func sameCSR(a, b *linalg.CSR) bool {
	if a.Rows != b.Rows || a.ColsN != b.ColsN || len(a.Vals) != len(b.Vals) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	for i := range a.Vals {
		if a.Vals[i] != b.Vals[i] {
			return false
		}
	}
	return true
}

func sameGraph(a, b *graph.Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for u := 0; u < a.NumNodes(); u++ {
		sa, sb := a.Successors(int32(u)), b.Successors(int32(u))
		if len(sa) != len(sb) {
			return false
		}
		for i := range sa {
			if sa[i] != sb[i] {
				return false
			}
		}
	}
	return true
}

func sameSourceGraph(a, b *source.Graph) bool {
	return sameCSR(a.Counts, b.Counts) && sameCSR(a.T, b.T) && a.NumEdges == b.NumEdges
}

func main() {
	var (
		mode    = flag.String("mode", "pipeline", "pipeline (stage timings), stream (delta pipeline vs cold rebuild), bandwidth (float32 vs float64 kernel throughput), or outofcore (slab-backed solve under an RSS cap)")
		preset  = flag.String("preset", "UK2002", "synthetic corpus preset (UK2002, IT2004, WB2001)")
		scale   = flag.Float64("scale", 0.02, "fraction of the preset's Table 1 size to generate")
		seed    = flag.Uint64("seed", 1, "generator seed (pins the corpus)")
		out     = flag.String("out", "", "report output path (default BENCH_<mode>.json)")
		workers = flag.Int("workers", 4, "worker count for the mid tier (1 and GOMAXPROCS always run)")

		residencyCap = flag.String("residency-cap", "",
			"outofcore mode: artificial peak-RSS cap for the slab solve, e.g. 300m (default: slab bytes / 4)")
	)
	flag.Parse()

	switch *mode {
	case "stream":
		if *out == "" {
			*out = "BENCH_stream.json"
		}
		runStream(*preset, *scale, *seed, *out, *workers)
		return
	case "bandwidth":
		if *out == "" {
			*out = "BENCH_bandwidth.json"
		}
		runBandwidth(*preset, *scale, *seed, *out, *workers)
		return
	case "outofcore":
		if *out == "" {
			*out = "BENCH_outofcore.json"
		}
		runOutOfCore(*preset, *scale, *seed, *out, *workers, *residencyCap)
		return
	case "pipeline":
		if *out == "" {
			*out = "BENCH_pipeline.json"
		}
	default:
		fatal(fmt.Errorf("unknown -mode %q (want pipeline, stream, bandwidth, or outofcore)", *mode))
	}

	maxprocs := runtime.GOMAXPROCS(0)
	tiers := []int{1}
	if *workers > 1 && *workers != maxprocs {
		tiers = append(tiers, *workers)
	}
	if maxprocs > 1 {
		tiers = append(tiers, maxprocs)
	}

	fmt.Fprintf(os.Stderr, "bench: generating %s at scale %g (seed %d)\n", *preset, *scale, *seed)
	var ds *gen.Dataset
	genRow := measure("gen", "serial", 1, 0, func() {
		var err error
		ds, err = gen.GeneratePreset(gen.Preset(*preset), *scale, *seed)
		if err != nil {
			fatal(err)
		}
	})
	pg := ds.Pages
	info := graphInfo{
		Preset:  *preset,
		Scale:   *scale,
		Seed:    *seed,
		Pages:   pg.NumPages(),
		Links:   pg.NumLinks(),
		Sources: pg.NumSources(),
	}
	fmt.Fprintf(os.Stderr, "bench: %d pages, %d links, %d sources\n", info.Pages, info.Links, info.Sources)

	stages := []stageResult{genRow}

	// Compress once; the decode stage reads this fixed slab.
	pageGraph := pg.ToGraph()
	var compressed *webgraph.Compressed
	stages = append(stages, measure("compress", "serial", 1, 0, func() {
		var err error
		compressed, err = webgraph.Compress(pageGraph)
		if err != nil {
			fatal(err)
		}
	}))

	// Stage: webgraph decode. Serial goes through the Builder sort;
	// parallel assembles the CSR directly from per-block buffers.
	var decodedSerial *graph.Graph
	decodeRow := measure("decode", "serial", 1, 0, func() {
		var err error
		decodedSerial, err = compressed.Decompress()
		if err != nil {
			fatal(err)
		}
	})
	stages = append(stages, decodeRow)
	decodeIdentical := true
	var decodeParallelNs int64
	for _, w := range tiers {
		var decoded *graph.Graph
		row := measure("decode", "parallel", w, decodeRow.NsPerOp, func() {
			var err error
			decoded, err = compressed.DecompressParallel(w)
			if err != nil {
				fatal(err)
			}
		})
		stages = append(stages, row)
		decodeParallelNs = row.NsPerOp
		if !sameGraph(decodedSerial, decoded) {
			decodeIdentical = false
		}
	}

	// Stage: source-graph aggregation. Serial uses per-page maps;
	// sharded sorts packed keys and merges.
	var sgSerial *source.Graph
	buildRow := measure("build", "serial", 1, 0, func() {
		var err error
		sgSerial, err = source.BuildSerial(pg, source.Options{})
		if err != nil {
			fatal(err)
		}
	})
	stages = append(stages, buildRow)
	buildIdentical := true
	var sg *source.Graph
	var buildParallelNs int64
	for _, w := range tiers {
		row := measure("build", "sharded", w, buildRow.NsPerOp, func() {
			var err error
			sg, err = source.Build(pg, source.Options{Workers: w})
			if err != nil {
				fatal(err)
			}
		})
		stages = append(stages, row)
		buildParallelNs = row.NsPerOp
		if !sameSourceGraph(sgSerial, sg) {
			buildIdentical = false
		}
	}

	// Stage: transpose of the source transition matrix.
	var ttSerial *linalg.CSR
	transRow := measure("transpose", "serial", 1, 0, func() {
		ttSerial = sg.T.Transpose()
	})
	stages = append(stages, transRow)
	transIdentical := true
	var transParallelNs int64
	for _, w := range tiers {
		var tt *linalg.CSR
		row := measure("transpose", "parallel", w, transRow.NsPerOp, func() {
			tt = sg.T.TransposeParallel(w)
		})
		stages = append(stages, row)
		transParallelNs = row.NsPerOp
		if !sameCSR(ttSerial, tt) {
			transIdentical = false
		}
	}

	// Stage: the transpose-free SpMV kernel (the solver inner loop when no
	// materialized transpose is available).
	x := linalg.NewUniformVector(sg.T.Rows)
	dst := linalg.NewVector(sg.T.ColsN)
	mulBytes := multvecModelBytes(sg.T.Rows, sg.T.ColsN, sg.T.NNZ(), 8, 8)
	mulRow := measure("multvec", "serial", 1, 0, func() {
		linalg.MulTVec(sg.T, x, dst)
	})
	mulRow.GBPerSec = gbPerSec(mulBytes, mulRow.NsPerOp)
	stages = append(stages, mulRow)
	ref := linalg.NewVector(sg.T.ColsN)
	linalg.MulTVecParallel(sg.T, x, ref, 1)
	mulIdentical := true
	for _, w := range tiers {
		row := measure("multvec", "striped", w, mulRow.NsPerOp, func() {
			linalg.MulTVecParallel(sg.T, x, dst, w)
		})
		row.GBPerSec = gbPerSec(mulBytes, row.NsPerOp)
		stages = append(stages, row)
		for i := range dst {
			if dst[i] != ref[i] {
				mulIdentical = false
				break
			}
		}
	}

	// Stage: spam proximity (builds its Pᵀ operand directly, no transpose).
	structure := sg.Structure()
	seeds := ds.SpamSources
	if len(seeds) > 8 {
		seeds = seeds[:8]
	}
	var prox linalg.Vector
	stages = append(stages, measure("proximity", "direct", 1, 0, func() {
		var err error
		prox, _, err = throttle.SpamProximity(structure, seeds, throttle.ProximityOptions{})
		if err != nil {
			fatal(err)
		}
	}))

	// Stage: the SRSR stationary solve with throttling. Achieved GB/s
	// prices the iterations' fused-step traffic against the measured wall
	// time (which also absorbs throttle application and transpose, so the
	// figure is a lower bound on kernel throughput).
	kappa := throttle.TopK(prox, len(seeds))
	var solveRes *core.Result
	solve := measure("solve", "power", 1, 0, func() {
		var err error
		if solveRes, err = core.Rank(sg, kappa, core.Config{}); err != nil {
			fatal(err)
		}
	})
	solve.GBPerSec = gbPerSec(
		fusedPowerModelBytes(solveRes.Throttled.Rows, solveRes.Throttled.NNZ(), 8, 8)*int64(solveRes.Stats.Iterations),
		solve.NsPerOp)
	stages = append(stages, solve)

	identical := decodeIdentical && buildIdentical && transIdentical && mulIdentical
	serialCold := decodeRow.NsPerOp + buildRow.NsPerOp + transRow.NsPerOp
	parallelCold := decodeParallelNs + buildParallelNs + transParallelNs
	rep := report{
		Schema:     schema,
		Go:         runtime.Version(),
		GOMAXPROCS: maxprocs,
		NumCPU:     runtime.NumCPU(),
		Graph:      info,
		Stages:     stages,
		ColdPath: coldPath{
			SerialNs:   serialCold,
			ParallelNs: parallelCold,
			Identical:  identical,
		},
	}
	if parallelCold > 0 {
		rep.ColdPath.Speedup = float64(serialCold) / float64(parallelCold)
	}
	rep.MaxRSSBytes = peakRSS()

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "bench: cold path %.2fx (serial %dns → parallel %dns, identical=%v); report in %s\n",
		rep.ColdPath.Speedup, serialCold, parallelCold, identical, *out)
	if !identical {
		fmt.Fprintln(os.Stderr, "bench: ERROR: parallel output diverged from serial")
		os.Exit(1)
	}
}
