// Command benchmark is the repository's benchmark: four workloads over
// one synthetic corpus, each measured from outside the program by timing
// calls into its layers' public functions (see README.md).
//
//	go run ./benchmark -workload <name|all> -seed N [-seconds S] [-scale X] [-trace 0|1|FILE] [-out FILE]
//	go run ./benchmark compare A.jsonl B.jsonl
//
// One workload runs in this process and prints its report followed, as
// the last line, by one JSON object {correct, attempted, failed,
// metrics}. "all" runs every workload in a child process of its own.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// workloads maps the names in BENCHMARK.json to their implementations.
var workloads = map[string]func(*run) error{
	"cold_publish":        runColdPublish,
	"delta_refresh":       runDeltaRefresh,
	"outofcore_rank":      runOutOfCoreRank,
	"serve_under_refresh": runServeUnderRefresh,
}

// defaultScale is the share of the UK2002 preset every workload
// generates (≈336 k pages, 2.1 M links, 9.8 k sources). The issue sized
// the corpus at 0.5; the 3420 s cap on 92 runs leaves about 35 s a run,
// set-up included, so the scale is lowered for all four together.
const defaultScale = 0.1

// scratchRoot is where scratch data goes unless -dir says otherwise: a
// directory of the checkout that .gitignore names.
const scratchRoot = ".bench_build"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "seed of the corpus generator, the churn generators and the arrival schedule")
		seconds  = flag.Float64("seconds", 15, "length of the timed section; sections with a minimum repeat count may run longer")
		scale    = flag.Float64("scale", defaultScale, "share of the UK2002 preset to generate")
		trace    = flag.String("trace", "0", "0: untraced run (end-to-end metrics); 1: traced run (per-layer metrics); a file name: traced run that also writes its spans there")
		out      = flag.String("out", "", "append each run's full report to this file, one JSON object per line (the input of compare)")
		dir      = flag.String("dir", "", "scratch directory (default: a fresh directory under "+scratchRoot+", removed on exit)")
		specPath = flag.String("spec", "BENCHMARK.json", "the benchmark's metric and workload declarations")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *workload == "all" {
		os.Exit(runAll(sp, *seed, *seconds, *scale, *trace, *out, *specPath))
	}
	fn := workloads[*workload]
	if fn == nil || !sp.hasWorkload(*workload) {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds <= 0 || *scale <= 0 {
		fatal(errors.New("-seconds and -scale must be positive"))
	}

	workers := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(workers)
	scratch, cleanup, err := scratchDir(*dir)
	if err != nil {
		fatal(err)
	}
	cfg := config{Workload: *workload, Seed: *seed, Scale: *scale, Seconds: *seconds, Workers: workers, Dir: scratch, Traced: *trace != "0", RooflineMaxBytes: rooflineMaxArray, KernelInts: refKernelInts}
	r := newRun(cfg)
	err = fn(r)
	cleanup()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	if *trace != "0" && *trace != "1" {
		if err := writeSpans(*trace, r.tr.spans); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		if err := appendReport(*out, r.rep); err != nil {
			fatal(err)
		}
	}
	line, err := resultLine(sp, r.rep)
	printReport(r.rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
	if !r.rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// scratchDir makes the run's scratch directory and returns how to remove
// it.
func scratchDir(dir string) (string, func(), error) {
	if dir == "" {
		dir = scratchRoot
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	d, err := os.MkdirTemp(dir, "run-")
	return d, func() { os.RemoveAll(d) }, err
}

// resultLine is the last line of a run: every end_to_end metric of the
// spec for an untraced run, every per_layer metric for a traced one. A
// per-layer metric the workload does not produce belongs to a layer the
// workload does not call, and reads 0.
func resultLine(sp *spec, rep *report) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	// Layer and bounded metrics must all be declared; of the workload's
	// own named timings the traced line carries those the spec lists.
	declared, strict, lenient := sp.EndToEnd, rep.EndToEnd, []metric(nil)
	if rep.Traced {
		declared, strict, lenient = sp.PerLayer, rep.Layers, rep.Named
	}
	got := map[string]metric{}
	for _, m := range append(append([]metric(nil), strict...), lenient...) {
		if _, dup := got[m.Name]; dup {
			return "", fmt.Errorf("metric %s produced twice", m.Name)
		}
		got[m.Name] = m
	}
	metrics := map[string]value{}
	for _, d := range declared {
		m, ok := got[d.Name]
		switch {
		case !ok && !rep.Traced:
			return "", fmt.Errorf("end-to-end metric %s not produced", d.Name)
		case ok && m.Unit != d.Unit:
			return "", fmt.Errorf("metric %s produced in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
		metrics[d.Name] = value{m.Value, d.Unit}
	}
	for _, m := range strict {
		if _, ok := metrics[m.Name]; !ok {
			return "", fmt.Errorf("metric %s produced but not declared in the spec", m.Name)
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, max(rep.Attempted, 1), rep.Failed, metrics})
	return string(b), err
}

// printReport writes the human-readable report: environment, every
// metric by name with its unit and sample count, the checks, and for a
// traced run each class's critical path.
func printReport(rep *report) {
	fmt.Printf("workload %s seed %d scale %g seconds %g traced %v\n", rep.Workload, rep.Seed, rep.Scale, rep.Seconds, rep.Traced)
	fmt.Printf("env nproc %d gomaxprocs %d %s corpus UK2002 pages %d links %d sources %d\n",
		rep.NProc, rep.GOMAXPROCS, rep.GoVersion, rep.Pages, rep.Links, rep.Sources)
	fmt.Printf("ops %d failed_ops %d\n", rep.Attempted, rep.Failed)
	section := func(title string, ms []metric) {
		for _, m := range ms {
			fmt.Printf("%-10s %-40s %s %s n=%d\n", title, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit, m.N)
		}
	}
	section("end_to_end", rep.Named)
	section("bounded", rep.EndToEnd)
	section("layer", rep.Layers)
	for _, c := range rep.Checks {
		fmt.Printf("check      %-40s ok=%v %s\n", c.Name, c.OK, c.Detail)
	}
	for _, p := range rep.CriticalPath {
		fmt.Printf("critical_path %s/%s ops=%d self_sum=%.3f:", rep.Workload, p.Class, p.Ops, p.SelfSum)
		for _, l := range p.criticalPath() {
			fmt.Printf(" %s %.1f%%", l.Layer, 100*l.Share)
		}
		fmt.Println()
	}
}

func appendReport(path string, rep *report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload of the spec in a child process of its own,
// untraced; with tracing asked for, a second, traced run of the same
// workload and seed follows, and the difference between the two runs'
// first headline timing is printed as trace_overhead_pct.
func runAll(sp *spec, seed uint64, seconds, scale float64, trace, out, specPath string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp(scratchRoot, "all-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)
	status := 0
	child := func(name, traceArg, reportFile string) *report {
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-scale", strconv.FormatFloat(scale, 'g', -1, 64),
			"-trace", traceArg, "-out", reportFile, "-spec", specPath)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s (trace %s): %v\n", name, traceArg, err)
			status = 1
		}
		reps, err := readReports(reportFile)
		if err != nil || len(reps) == 0 {
			return nil
		}
		if out != "" {
			if err := appendReport(out, reps[len(reps)-1]); err != nil {
				fatal(err)
			}
		}
		return reps[len(reps)-1]
	}
	for _, w := range sp.Workloads {
		plain := child(w.Name, "0", filepath.Join(tmp, w.Name+".json"))
		if trace == "0" {
			continue
		}
		traceArg := trace
		if trace != "1" {
			traceArg = trace + "." + w.Name
		}
		traced := child(w.Name, traceArg, filepath.Join(tmp, w.Name+".traced.json"))
		if plain == nil || traced == nil {
			continue
		}
		a, b := headline(plain), headline(traced)
		fmt.Printf("trace_overhead_pct %s %.2f %% (op1_rel untraced %g, traced %g)\n", w.Name, 100*(b-a)/a, a, b)
	}
	return status
}

// headline is a report's op1_rel, which both kinds of run measure.
func headline(rep *report) float64 {
	for _, m := range rep.EndToEnd {
		if m.Name == "op1_rel" {
			return m.Value
		}
	}
	return 0
}
