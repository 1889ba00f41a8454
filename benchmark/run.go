package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// config is what one workload run receives.
type config struct {
	Workload string
	Seed     uint64
	Scale    float64
	Seconds  float64 // length of the timed section
	Workers  int     // GOMAXPROCS and every Workers field
	Dir      string  // scratch directory, exists, removed by the caller
	Traced   bool
	// RooflineMaxBytes caps each array of the roofline probe and
	// KernelInts sizes the reference kernel (1 GiB and refKernelInts in a
	// real run; tests pass far less).
	RooflineMaxBytes int64
	KernelInts       int
}

func (c config) budget() time.Duration { return time.Duration(c.Seconds * float64(time.Second)) }

// check is one correctness check made after the timed section.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report is everything one run of one workload produced.
type report struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Pages      int     `json:"pages"`
	Links      int64   `json:"links"`
	Sources    int     `json:"sources"`

	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Correct   bool    `json:"correct"`
	Checks    []check `json:"checks"`

	// EndToEnd holds the metrics BENCHMARK.json bounds (untraced run);
	// Named the same measurements under the workload's own names plus
	// fail_ratio; Layers the per-layer metrics (traced run).
	EndToEnd     []metric       `json:"end_to_end,omitempty"`
	Named        []metric       `json:"named"`
	Layers       []metric       `json:"layers,omitempty"`
	CriticalPath []classProfile `json:"critical_path,omitempty"`
}

// run is the state a workload threads through its phases.
type run struct {
	cfg config
	tr  *tracer
	rep *report

	cal      *calibrator
	setups   relSamples
	procBase procStats
	// rssAfterVerify is the RSS high-water mark when the verification
	// pass ended, before the traced run's probes.
	rssAfterVerify float64
}

func newRun(cfg config) *run {
	r := &run{cfg: cfg, rep: &report{
		Workload: cfg.Workload, Seed: cfg.Seed, Scale: cfg.Scale, Seconds: cfg.Seconds, Traced: cfg.Traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}}
	r.cal = newCalibrator(cfg.Workers, cfg.KernelInts)
	if cfg.Traced {
		r.tr = newTracer()
	}
	return r
}

func (r *run) corpus(pages int, links int64, sources int) {
	r.rep.Pages, r.rep.Links, r.rep.Sources = pages, links, sources
}

// setupRepeats is how often a workload repeats its set-up so that setup_s
// is a median, not one draw.
const setupRepeats = 3

// setup runs fn setupRepeats times, timing each; the state fn builds on
// its last call is the one the workload keeps.
func (r *run) setup(fn func() error) error {
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		kernel := r.cal.both(3)
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setups.add(time.Since(t0), kernel)
	}
	return nil
}

// startTimed marks the end of set-up: garbage from the repeats is
// returned to the OS and the RSS high-water mark reset, so peak_rss_mib
// covers the retained base state plus the timed section.
func (r *run) startTimed() {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	r.procBase = readProc()
}

// endTimed reads the process counters when the timed section ends,
// before the verification pass.
func (r *run) endTimed() (peakMiB float64, used procStats) {
	return float64(peakRSSBytes()) / (1 << 20), readProc().sub(r.procBase)
}

func (r *run) fail(format string, args ...any) {
	r.rep.Failed++
	fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED op: %s\n", r.cfg.Workload, fmt.Sprintf(format, args...))
}

func (r *run) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
	r.rep.Checks = append(r.rep.Checks, c)
	if !ok {
		r.rep.Failed++
		fmt.Fprintf(os.Stderr, "benchmark: %s: CHECK FAILED %s: %s\n", r.cfg.Workload, name, c.Detail)
	}
}

// verified marks the end of the verification pass.
func (r *run) verified() { r.rssAfterVerify = float64(peakRSSBytes()) / (1 << 20) }

func (r *run) named(name string, v float64, unit string, n int) {
	r.rep.Named = append(r.rep.Named, metric{name, v, unit, n})
}

func (r *run) layer(name string, v float64, unit string, n int) {
	if r.cfg.Traced {
		r.rep.Layers = append(r.rep.Layers, metric{name, v, unit, n})
	}
}

// endToEnd fills the bounded metrics every workload reports under the
// same names: set-up time, peak RSS, and the workload's four headline
// timings, each relative to the reference kernel (calib.go; README.md
// maps op1..op4 per workload).
//
// setup_s is in seconds of a machine on which the reference kernel takes
// refKernelNominal: the measured set-up time scaled by nominal over
// measured kernel time. setup_wall_s beside it is the raw wall time.
func (r *run) endToEnd(peakMiB float64, ops [4]metric) {
	setup := metric{"setup_s", median(r.setups.rel) * refKernelNominal.Seconds(), "s", len(r.setups.rel)}
	peak := metric{"peak_rss_mib", peakMiB, "MiB", 1}
	r.rep.EndToEnd = append(r.rep.EndToEnd, setup, peak)
	for i, m := range ops {
		r.rep.EndToEnd = append(r.rep.EndToEnd, metric{fmt.Sprintf("op%d_rel", i+1), m.Value, "x", m.N})
	}
	r.rep.Named = append(r.rep.Named, setup, peak)
	r.named("setup_wall_s", median(r.setups.raw.in(time.Second)), "s", len(r.setups.raw))
}

// finish closes the report after the verification pass.
func (r *run) finish(used procStats) *report {
	rep := r.rep
	rep.Correct = rep.Failed == 0
	r.named("fail_ratio", float64(rep.Failed)/float64(max(rep.Attempted, 1)), "ratio", rep.Attempted)
	r.layer("proc.cpu_s", used.cpu.Seconds(), "s", 1)
	r.layer("proc.gc_cycles", float64(used.gcCycles), "count", 1)
	r.layer("proc.gc_pause_ms", float64(used.gcPause)/1e6, "ms", int(used.gcCycles))
	r.layer("proc.alloc_mb", float64(used.allocBytes)/1e6, "MB", 1)
	r.layer("proc.rss_after_verify_mib", r.rssAfterVerify, "MiB", 1)
	if r.tr != nil {
		rep.CriticalPath = profile(r.tr.spans)
		var wall, self float64
		for _, p := range rep.CriticalPath {
			wall += float64(p.WallNs)
			self += p.SelfSum * float64(p.WallNs)
		}
		r.layer("trace.self_sum_ratio", self/math.Max(wall, 1), "ratio", len(r.tr.spans))
	}
	return rep
}

// procStats are process-wide counters read before and after the timed
// section.
type procStats struct {
	cpu        time.Duration
	gcCycles   uint32
	gcPause    uint64
	allocBytes uint64
}

func readProc() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStats{cpu: cpuTime(), gcCycles: ms.NumGC, gcPause: ms.PauseTotalNs, allocBytes: ms.TotalAlloc}
}

func (p procStats) sub(q procStats) procStats {
	return procStats{p.cpu - q.cpu, p.gcCycles - q.gcCycles, p.gcPause - q.gcPause, p.allocBytes - q.allocBytes}
}

// scoreHash is the FNV-64a hash of a score vector's float64 bits.
func scoreHash(v vector) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// cpuTime is the CPU time, user and system, the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU time on failure is reported as such
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
