package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/rank"
	"sourcerank/internal/sysmem"
	"sourcerank/internal/webgraph"
)

const outOfCoreSchema = "sourcerank/bench-outofcore/v2"

// outOfCoreAlpha is the damping factor for the benchmark solve (the
// paper's PageRank default).
const outOfCoreAlpha = 0.85

type graphInfo struct {
	Preset  string  `json:"preset"`
	Scale   float64 `json:"scale"`
	Seed    uint64  `json:"seed"`
	Pages   int     `json:"pages"`
	Links   int64   `json:"links"`
	Sources int     `json:"sources"`
}

type outOfCoreBuild struct {
	// GenNs and GenMaxRSSBytes cover the streaming generator alone: the
	// spill-buffered edge emission into sorted shard runs. GenUnderCap is
	// the gate that the generator — formerly the RSS high-water mark of
	// this bench — now fits the same residency budget as the solves.
	GenNs          int64 `json:"gen_ns"`
	GenMaxRSSBytes int64 `json:"gen_max_rss_bytes"`
	GenUnderCap    bool  `json:"gen_under_cap"`
	SpillRuns      int   `json:"spill_runs"`
	// CompressNs is the streaming compressor pass over the merged runs.
	CompressNs int64 `json:"compress_ns"`
	// SlabBuildNs / SlabBuild32Ns time the float64 and float32 slab
	// builds; the byte columns size each precision's P and Pᵀ files.
	SlabBuildNs   int64 `json:"slab_build_ns"`
	SlabBuild32Ns int64 `json:"slab_build32_ns"`
	PSlabBytes    int64 `json:"p_slab_bytes"`
	PTSlabBytes   int64 `json:"pt_slab_bytes"`
	PSlab32Bytes  int64 `json:"p_slab32_bytes"`
	PTSlab32Bytes int64 `json:"pt_slab32_bytes"`
}

type outOfCoreSolve struct {
	// Precision is "float64" or "float32"; each is hashed against its own
	// in-memory reference (the two differ in low-order bits by design).
	Precision string `json:"precision"`
	Workers   int    `json:"workers"`
	// OpenNs covers mmap + the open-time CRC/structural sweep (release-
	// behind, so it doesn't inflate residency); WallNs is the solve alone.
	OpenNs     int64 `json:"open_ns"`
	WallNs     int64 `json:"wall_ns"`
	Iterations int   `json:"iterations"`
	// GBPerSec prices the fused iteration traffic at this precision's
	// value/vector widths against WallNs.
	GBPerSec    float64 `json:"gb_per_s"`
	MaxRSSBytes int64   `json:"max_rss_bytes"`
	UnderCap    bool    `json:"under_cap"`
	// What the slab's residency controller did during the solve (the
	// open-time sweep excluded): EntryBytes is the Cols+Vals footprint one
	// pass streams, WindowBytes the release window the cap bought this
	// solve's kernel, ReleaseCalls the Release (MADV_DONTNEED) calls it
	// issued and ReleasedBytes the entry bytes they covered — Iterations ×
	// EntryBytes whenever the window is smaller than the entry section.
	EntryBytes    int64 `json:"entry_bytes"`
	WindowBytes   int64 `json:"window_bytes"`
	ReleaseCalls  int64 `json:"release_calls"`
	ReleasedBytes int64 `json:"released_bytes"`
	// Identical: score bits and iteration count match the in-memory solve
	// at the same precision and worker count.
	Identical bool   `json:"identical"`
	ScoreHash string `json:"score_hash"`
}

type outOfCoreSummary struct {
	CapBytes int64 `json:"cap_bytes"`
	// SlabBytes is the float64 P+Pᵀ footprint (the larger of the two
	// precision sets); CapRatio is SlabBytes/CapBytes and the committed
	// report keeps it >= 4.
	SlabBytes int64   `json:"slab_bytes"`
	CapRatio  float64 `json:"cap_ratio"`
	// MaxRSSBytes is the worst VmHWM across the out-of-core solves, each
	// measured from a freshly reset high-water mark.
	MaxRSSBytes int64 `json:"max_rss_bytes"`
	UnderCap    bool  `json:"under_cap"`
	Identical   bool  `json:"identical"`
	// RSSSupported is false where /proc/self/status isn't available; the
	// RSS columns are then zero and the cap gates are vacuously false.
	RSSSupported bool `json:"rss_supported"`
}

type outOfCoreReport struct {
	Schema     string           `json:"schema"`
	Go         string           `json:"go"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	Graph      graphInfo        `json:"graph"`
	Build      outOfCoreBuild   `json:"build"`
	Solves     []outOfCoreSolve `json:"solves"`
	Summary    outOfCoreSummary `json:"summary"`
}

// matrixModelBytes is the compulsory traffic of one sweep over a CSR
// operand: row pointers, column indices and values (DESIGN §13).
func matrixModelBytes(rows, nnz int, valW int64) int64 {
	return 8*int64(rows) + 4*int64(nnz) + valW*int64(nnz)
}

// fusedUniformModelBytes is the compulsory traffic of one fused
// power-uniform iteration: the matrix stream plus six dense vector
// passes (mul read+write, finish read+write, residual two reads) at the
// precision's value and vector widths.
func fusedUniformModelBytes(rows, nnz int, valW, vecW int64) int64 {
	return matrixModelBytes(rows, nnz, valW) + 6*vecW*int64(rows)
}

func gbPerSec(modelBytes, ns int64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(modelBytes) / float64(ns) // bytes/ns == GB/s
}

func scoreHash(x linalg.Vector) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// dropHeap releases everything the caller has already nil'ed so the
// subsequent VmHWM reset measures only the out-of-core working set.
func dropHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// run records one report: to the file out, or to stdout when out is
// empty. It returns an error, after writing the report, when any
// slab-backed solve diverged from its in-memory reference.
func run(preset string, scale float64, seed uint64, out string, workers int, capSpec string) error {
	tiers := []int{1, 2, workers}
	sort.Ints(tiers)
	uniq := tiers[:0]
	for _, w := range tiers {
		if w >= 1 && (len(uniq) == 0 || uniq[len(uniq)-1] != w) {
			uniq = append(uniq, w)
		}
	}
	tiers = uniq

	spillDir, err := os.MkdirTemp("", "srank-outofcore-spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(spillDir)

	fmt.Fprintf(os.Stderr, "bench: stream-generating %s at scale %g (seed %d)\n", preset, scale, seed)
	sysmem.ResetPeakRSS()
	t0 := time.Now()
	corpus, err := gen.GenerateStreamPreset(gen.Preset(preset), scale, seed, gen.StreamOptions{
		Dir:     spillDir,
		Workers: workers,
	})
	if err != nil {
		return err
	}
	genNs := time.Since(t0).Nanoseconds()
	genRSS := int64(0)
	if peak, ok := sysmem.PeakRSSBytes(); ok {
		genRSS = peak
	}
	info := graphInfo{
		Preset:  preset,
		Scale:   scale,
		Seed:    seed,
		Pages:   corpus.NumPages,
		Links:   corpus.NumLinks,
		Sources: corpus.NumSources,
	}
	fmt.Fprintf(os.Stderr, "bench: %d pages, %d links, %d sources; %d spill runs, gen peak RSS %s\n",
		info.Pages, info.Links, info.Sources, len(corpus.Runs()), sysmem.FormatBytes(genRSS))

	// Streaming compressor: consume the k-way run merge directly; the
	// edge list never exists in RAM on this path.
	t0 = time.Now()
	compressed, err := webgraph.CompressFrom(corpus)
	if err != nil {
		return err
	}
	compressNs := time.Since(t0).Nanoseconds()

	slabDir, err := os.MkdirTemp("", "srank-outofcore-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(slabDir)
	t0 = time.Now()
	paths, err := webgraph.BuildTransitionSlabs(nil, slabDir, compressed, webgraph.SlabOptions{})
	if err != nil {
		return err
	}
	slabBuildNs := time.Since(t0).Nanoseconds()
	if err := os.MkdirAll(slabDir+"/f32", 0o755); err != nil {
		return err
	}
	t0 = time.Now()
	paths32, err := webgraph.BuildTransitionSlabs(nil, slabDir+"/f32", compressed, webgraph.SlabOptions{
		Precision: linalg.Float32,
	})
	if err != nil {
		return err
	}
	slabBuild32Ns := time.Since(t0).Nanoseconds()
	spillRuns := len(corpus.Runs())
	if err := corpus.Remove(); err != nil {
		return err
	}

	build := outOfCoreBuild{
		GenNs:          genNs,
		GenMaxRSSBytes: genRSS,
		SpillRuns:      spillRuns,
		CompressNs:     compressNs,
		SlabBuildNs:    slabBuildNs,
		SlabBuild32Ns:  slabBuild32Ns,
	}
	for _, f := range []struct {
		path string
		size *int64
	}{
		{paths.P, &build.PSlabBytes},
		{paths.PT, &build.PTSlabBytes},
		{paths32.P, &build.PSlab32Bytes},
		{paths32.PT, &build.PTSlab32Bytes},
	} {
		fi, err := os.Stat(f.path)
		if err != nil {
			return err
		}
		*f.size = fi.Size()
	}
	slabBytes := build.PSlabBytes + build.PTSlabBytes

	capBytes := slabBytes / 4
	if capSpec != "" {
		if capBytes, err = sysmem.ParseBytes(capSpec); err != nil {
			return fmt.Errorf("-residency-cap: %w", err)
		}
	}
	build.GenUnderCap = genRSS > 0 && genRSS <= capBytes
	fmt.Fprintf(os.Stderr, "bench: slabs %s (f64) + %s (f32) on disk, residency cap %s (ratio %.2f, gen under=%v)\n",
		sysmem.FormatBytes(slabBytes), sysmem.FormatBytes(build.PSlab32Bytes+build.PTSlab32Bytes),
		sysmem.FormatBytes(capBytes), float64(slabBytes)/float64(capBytes), build.GenUnderCap)

	// In-memory references: decode the compressed graph once, build the
	// classic dense operands, and solve per precision × worker tier.
	g, err := compressed.DecompressParallel(workers)
	if err != nil {
		return err
	}
	tt := rank.TransitionT(g)
	g, compressed = nil, nil
	tele := linalg.NewUniformVector(tt.Rows)
	type refKey struct {
		prec string
		w    int
	}
	refHash := make(map[refKey]string, 2*len(tiers))
	refIters := make(map[refKey]int, 2*len(tiers))
	m32 := linalg.NewCSR32(tt)
	for _, ref := range []struct {
		prec  string
		solve func(linalg.SolverOptions) (linalg.Vector, linalg.IterStats, error)
	}{
		{"float64", func(opt linalg.SolverOptions) (linalg.Vector, linalg.IterStats, error) {
			return linalg.PowerMethodT(tt, outOfCoreAlpha, tele, nil, opt)
		}},
		{"float32", func(opt linalg.SolverOptions) (linalg.Vector, linalg.IterStats, error) {
			return linalg.PowerMethodT(m32, outOfCoreAlpha, tele, nil, opt)
		}},
	} {
		for _, w := range tiers {
			t0 = time.Now()
			x, stats, err := ref.solve(linalg.SolverOptions{Workers: w})
			if err != nil {
				return err
			}
			k := refKey{ref.prec, w}
			refHash[k], refIters[k] = scoreHash(x), stats.Iterations
			fmt.Fprintf(os.Stderr, "bench: in-memory %s w=%d: %s, %d iters, hash %s\n",
				ref.prec, w, time.Since(t0).Round(time.Millisecond), stats.Iterations, refHash[k])
		}
	}
	tt, m32, tele = nil, nil, nil
	dropHeap()

	rep := outOfCoreReport{
		Schema:     outOfCoreSchema,
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Graph:      info,
		Build:      build,
	}
	rssSupported := true
	if _, ok := sysmem.PeakRSSBytes(); !ok {
		rssSupported = false
	}

	identicalAll, underCapAll := true, true
	var worstRSS int64
	precisions := []struct {
		name   string
		ptPath string
		valW   int64
		vecW   int64
		solve  func(ptPath string, capBytes int64, w int) (slabSolve, error)
	}{
		{"float64", paths.PT, 8, 8, solveSlab[float64]},
		{"float32", paths32.PT, 4, 4, solveSlab[float32]},
	}
	for _, pr := range precisions {
		// nnz is the same for both precisions; read it from the slab info
		// once per precision for the traffic model.
		si, err := linalg.ReadSlabInfo(nil, pr.ptPath)
		if err != nil {
			return err
		}
		for _, w := range tiers {
			sysmem.ResetPeakRSS()
			sv, err := pr.solve(pr.ptPath, capBytes, w)
			if err != nil {
				return err
			}
			iters := sv.stats.Iterations
			row := outOfCoreSolve{
				Precision:     pr.name,
				Workers:       w,
				OpenNs:        sv.openNs,
				WallNs:        sv.wallNs,
				Iterations:    iters,
				ScoreHash:     scoreHash(sv.x),
				EntryBytes:    (4 + pr.valW) * si.NNZ,
				WindowBytes:   sv.res.WindowBytes,
				ReleaseCalls:  sv.res.ReleaseCalls,
				ReleasedBytes: sv.res.ReleasedBytes,
			}
			row.GBPerSec = gbPerSec(fusedUniformModelBytes(sv.rows, int(si.NNZ), pr.valW, pr.vecW)*int64(iters), sv.wallNs)
			k := refKey{pr.name, w}
			row.Identical = row.ScoreHash == refHash[k] && iters == refIters[k]
			if peak, ok := sysmem.PeakRSSBytes(); ok {
				row.MaxRSSBytes = peak
				row.UnderCap = peak <= capBytes
				if peak > worstRSS {
					worstRSS = peak
				}
			}
			sv.x = nil
			dropHeap()
			identicalAll = identicalAll && row.Identical
			underCapAll = underCapAll && row.UnderCap
			rep.Solves = append(rep.Solves, row)
			fmt.Fprintf(os.Stderr, "bench: out-of-core %s w=%d: %s, %d iters, %.2f GB/s, peak RSS %s (cap %s, under=%v, identical=%v); window %s, %d release calls over %s\n",
				pr.name, w, time.Duration(sv.wallNs).Round(time.Millisecond), iters, row.GBPerSec,
				sysmem.FormatBytes(row.MaxRSSBytes), sysmem.FormatBytes(capBytes), row.UnderCap, row.Identical,
				sysmem.FormatBytes(row.WindowBytes), row.ReleaseCalls, sysmem.FormatBytes(row.ReleasedBytes))
		}
	}

	rep.Summary = outOfCoreSummary{
		CapBytes:     capBytes,
		SlabBytes:    slabBytes,
		MaxRSSBytes:  worstRSS,
		UnderCap:     underCapAll,
		Identical:    identicalAll,
		RSSSupported: rssSupported,
	}
	if capBytes > 0 {
		rep.Summary.CapRatio = float64(slabBytes) / float64(capBytes)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	dest := out
	if out == "" {
		dest = "stdout"
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(out, data, 0o644)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: identical=%v under_cap=%v gen_under_cap=%v cap_ratio=%.2f; report in %s\n",
		identicalAll, underCapAll, build.GenUnderCap, rep.Summary.CapRatio, dest)
	if !identicalAll {
		return errors.New("slab-backed scores diverged from the in-memory solve")
	}
	return nil
}

// slabSolve is one out-of-core solve: the widened scores and iteration
// stats, the open and solve wall times, the row count, and what the
// residency controller did between open and close.
type slabSolve struct {
	x              linalg.Vector
	stats          linalg.IterStats
	openNs, wallNs int64
	rows           int
	res            linalg.SlabResidency
}

// solveSlab runs one out-of-core solve against the slab at ptPath, whose
// values are stored as F.
func solveSlab[F linalg.Float](ptPath string, capBytes int64, w int) (slabSolve, error) {
	var sv slabSolve
	t0 := time.Now()
	s, err := linalg.OpenSlab[F](ptPath, linalg.SlabOpenOptions{MaxResident: capBytes})
	if err != nil {
		return sv, err
	}
	sv.openNs = time.Since(t0).Nanoseconds()
	opened := s.Residency()
	m := s.Matrix()
	sv.rows = m.Rows
	t0 = time.Now()
	sv.x, sv.stats, err = linalg.PowerMethodTUniform(m, outOfCoreAlpha, linalg.SolverOptions{Workers: w})
	if err != nil {
		s.Close() // the solve's error is the one to report
		return sv, err
	}
	sv.wallNs = time.Since(t0).Nanoseconds()
	sv.res = s.Residency()
	sv.res.ReleaseCalls -= opened.ReleaseCalls
	sv.res.ReleasedBytes -= opened.ReleasedBytes
	sv.res.PrefetchedBytes -= opened.PrefetchedBytes
	return sv, s.Close()
}
