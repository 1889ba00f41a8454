// Command loadgen is a closed-loop load generator for a running srserve
// or a fleet of them. It drives a configurable endpoint mix over real
// HTTP, measures request throughput and latency percentiles, and writes a
// machine-readable JSON report.
//
//	loadgen -target http://localhost:8080
//
// Before the runs it reads the corpus size from each target's
// /v1/snapshot, so /v1/rank and /v1/compare ask only for source IDs that
// exist; a 4xx in the report's status_classes is a server fault, not
// sampling noise. In-process capacity and latency under republish are
// measured by `go run ./benchmark -workload serve_under_refresh`.
//
// Fleet mode: -target may be repeated (or comma-separated) to spread
// workers round-robin across a builder and its replicas. A tracker
// samples every target's /v1/snapshot version throughout the runs and
// the report gains a fleet block with per-target version ranges and the
// maximum instantaneous version skew observed. With -max-skew >= 0 the
// run exits nonzero if that skew exceeds the budget — the CI gate that
// replica propagation keeps up under load.
//
//	loadgen -target http://builder:8080 -target http://replica:8081 -max-skew 2
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/bits"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	var targets targetList
	flag.Var(&targets, "target", "base URL of a running srserve; repeat or comma-separate for a fleet")
	var (
		duration = flag.Duration("duration", 3*time.Second, "measurement window per run")
		concCSV  = flag.String("concurrency", "1,4,16", "comma-separated closed-loop worker counts")
		mixSpec  = flag.String("mix", "topk=70,rank=20,compare=5,snapshot=5", "endpoint weights")
		topkN    = flag.Int("topk-n", 10, "n for /v1/topk requests")
		maxSkew  = flag.Int64("max-skew", -1, "fail the run if the fleet's max instantaneous version skew exceeds this (-1 disables)")
		out      = flag.String("out", "loadgen.json", "report path")
	)
	flag.Parse()

	if len(targets) == 0 {
		log.Fatal("loadgen: -target is required")
	}
	mix, err := parseMix(*mixSpec)
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	concs, err := parseConcurrency(*concCSV)
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}

	rep, err := run(context.Background(), options{
		targets: targets, concurrency: concs, mix: mix, mixSpec: *mixSpec,
		topkN: *topkN, duration: *duration, maxSkew: *maxSkew,
	})
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	log.Printf("wrote %s (%d runs)", *out, len(rep.Runs))
	// The skew gate exits nonzero only after the report is on disk, so a
	// failed CI run still leaves the evidence behind.
	if f := rep.Fleet; f != nil && !f.SkewOK {
		log.Fatalf("loadgen: fleet version skew %d exceeds budget %d", f.MaxSkew, *maxSkew)
	}
}

// options is one invocation's parsed flags.
type options struct {
	targets     []string
	concurrency []int
	mix         mixTable
	mixSpec     string
	topkN       int
	duration    time.Duration
	maxSkew     int64
}

// run reads the fleet's corpus size, drives one mixed run per
// concurrency level, and folds the fleet tracker's observations into the
// report.
func run(ctx context.Context, o options) (*report, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	sources := 0
	for i, tg := range o.targets {
		snap, err := probeSnapshot(ctx, client, tg)
		if err != nil {
			return nil, fmt.Errorf("%s/v1/snapshot: %w", tg, err)
		}
		if n := snap.Corpus.Sources; i == 0 || n < sources {
			sources = n
		}
	}
	if sources < 1 {
		return nil, fmt.Errorf("%s serves an empty corpus", strings.Join(o.targets, ","))
	}
	rep := &report{
		Schema:        "sourcerank/bench-serving/v1",
		GeneratedUnix: time.Now().Unix(),
		Config: reportConfig{
			Target: strings.Join(o.targets, ","), Sources: sources,
			DurationS: o.duration.Seconds(), Mix: o.mixSpec, TopKN: o.topkN,
			GoMaxProcs: runtime.GOMAXPROCS(0),
		},
	}

	// Fleet tracking spans every run: skew between replicas matters
	// exactly while load (and builder churn) is in flight.
	var tracker *fleetTracker
	if len(o.targets) > 1 || o.maxSkew >= 0 {
		tracker = startFleetTracker(ctx, o.targets, 100*time.Millisecond)
	}
	for _, c := range o.concurrency {
		res := runLoad(ctx, runSpec{
			name: fmt.Sprintf("mix-c%d", c), targets: o.targets, sources: sources,
			concurrency: c, mix: o.mix, topkN: o.topkN, duration: o.duration,
		})
		rep.Runs = append(rep.Runs, res)
		log.Printf("c=%d mix: %.0f rps, p50 %.3fms p99 %.3fms", c, res.RPS,
			res.Latency.P50*1e3, res.Latency.P99*1e3)
	}
	if tracker != nil {
		rep.Fleet = tracker.stop(o.maxSkew)
		log.Printf("fleet: %d targets, %d samples, max version skew %d (budget %d)",
			len(rep.Fleet.PerTarget), rep.Fleet.Samples, rep.Fleet.MaxSkew, o.maxSkew)
	}
	return rep, nil
}

// targetList is a repeatable, comma-separable -target flag.
type targetList []string

func (t *targetList) String() string { return strings.Join(*t, ",") }

func (t *targetList) Set(v string) error {
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimRight(strings.TrimSpace(part), "/")
		if part == "" {
			continue
		}
		*t = append(*t, part)
	}
	return nil
}

// --- report schema ---

type report struct {
	Schema        string       `json:"schema"`
	GeneratedUnix int64        `json:"generated_unix"`
	Config        reportConfig `json:"config"`
	Runs          []runResult  `json:"runs"`
	Fleet         *fleetReport `json:"fleet,omitempty"`
}

// fleetReport summarizes snapshot-version convergence across a fleet of
// targets sampled throughout the load runs.
type fleetReport struct {
	Targets []string `json:"targets"`
	// Samples is how many sampling rounds saw at least one target.
	Samples int `json:"samples"`
	// MaxSkew is the largest spread between the highest and lowest
	// snapshot version served by any two targets in the same round.
	MaxSkew uint64 `json:"max_skew"`
	// SkewBudget echoes -max-skew; -1 means observed but unenforced.
	SkewBudget int64 `json:"skew_budget"`
	// SkewOK is false only when a budget was set and exceeded.
	SkewOK    bool                `json:"skew_ok"`
	PerTarget []fleetTargetReport `json:"per_target"`
}

type fleetTargetReport struct {
	Target      string `json:"target"`
	MinVersion  uint64 `json:"min_version"`
	MaxVersion  uint64 `json:"max_version"`
	LastVersion uint64 `json:"last_version"`
	// Errors counts sampling probes that failed (unreachable target,
	// 503 before first sync, bad body).
	Errors int `json:"errors"`
}

type reportConfig struct {
	Target string `json:"target"`
	// Sources is the smallest corpus any target served before the runs:
	// rank and compare sample IDs in [0, Sources).
	Sources    int     `json:"sources"`
	DurationS  float64 `json:"duration_s"`
	Mix        string  `json:"mix"`
	TopKN      int     `json:"topk_n"`
	GoMaxProcs int     `json:"gomaxprocs"`
}

type runResult struct {
	Name          string           `json:"name"`
	Concurrency   int              `json:"concurrency"`
	Requests      uint64           `json:"requests"`
	Errors        uint64           `json:"errors"`
	StatusClasses map[string]int64 `json:"status_classes"`
	DurationS     float64          `json:"duration_s"`
	RPS           float64          `json:"rps"`
	Latency       latencySummary   `json:"latency_s"`
}

type latencySummary struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// --- endpoint mix ---

type reqKind int

const (
	kindTopK reqKind = iota
	kindRank
	kindCompare
	kindSnapshot
)

type mixEntry struct {
	kind   reqKind
	weight int
}

type mixTable []mixEntry

func (m mixTable) total() int {
	t := 0
	for _, e := range m {
		t += e.weight
	}
	return t
}

func (m mixTable) pick(r int) reqKind {
	for _, e := range m {
		if r < e.weight {
			return e.kind
		}
		r -= e.weight
	}
	return m[len(m)-1].kind
}

func parseMix(spec string) (mixTable, error) {
	kinds := map[string]reqKind{
		"topk": kindTopK, "rank": kindRank, "compare": kindCompare, "snapshot": kindSnapshot,
	}
	var m mixTable
	for _, part := range strings.Split(spec, ",") {
		name, wstr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -mix entry %q, want endpoint=weight", part)
		}
		kind, ok := kinds[name]
		if !ok {
			return nil, fmt.Errorf("unknown endpoint %q in -mix", name)
		}
		w, err := strconv.Atoi(wstr)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad weight in -mix entry %q", part)
		}
		if w > 0 {
			m = append(m, mixEntry{kind, w})
		}
	}
	if m.total() == 0 {
		return nil, fmt.Errorf("-mix %q selects no endpoints", spec)
	}
	return m, nil
}

func parseConcurrency(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || c <= 0 {
			return nil, fmt.Errorf("bad -concurrency entry %q", part)
		}
		out = append(out, c)
	}
	return out, nil
}

// --- fleet version-skew tracking ---

// fleetTracker samples each target's served snapshot version on a
// fixed cadence while load runs, recording per-target ranges and the
// worst instantaneous skew. Probes are cheap (one small JSON GET per
// target per round) next to the load itself.
type fleetTracker struct {
	targets []string
	cancel  context.CancelFunc
	done    chan struct{}

	mu      sync.Mutex
	samples int
	maxSkew uint64
	per     []fleetTargetReport
}

func startFleetTracker(ctx context.Context, targets []string, every time.Duration) *fleetTracker {
	tctx, cancel := context.WithCancel(ctx)
	ft := &fleetTracker{
		targets: targets,
		cancel:  cancel,
		done:    make(chan struct{}),
		per:     make([]fleetTargetReport, len(targets)),
	}
	for i, tg := range targets {
		ft.per[i].Target = tg
	}
	client := &http.Client{Timeout: 5 * time.Second}
	go func() {
		defer close(ft.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			ft.sample(tctx, client)
			select {
			case <-tctx.Done():
				return
			case <-t.C:
			}
		}
	}()
	return ft
}

// snapshotInfo is the part of a /v1/snapshot body loadgen reads.
type snapshotInfo struct {
	Version uint64 `json:"version"`
	Corpus  struct {
		Sources int `json:"sources"`
	} `json:"corpus"`
}

// probeSnapshot reads one target's served snapshot version and corpus size.
func probeSnapshot(ctx context.Context, client *http.Client, target string) (snapshotInfo, error) {
	var body snapshotInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/v1/snapshot", nil)
	if err != nil {
		return body, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return body, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return body, fmt.Errorf("status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	return body, err
}

func (ft *fleetTracker) sample(ctx context.Context, client *http.Client) {
	versions := make([]uint64, len(ft.targets))
	oks := make([]bool, len(ft.targets))
	var wg sync.WaitGroup
	for i, tg := range ft.targets {
		wg.Add(1)
		go func(i int, tg string) {
			defer wg.Done()
			snap, err := probeSnapshot(ctx, client, tg)
			if err == nil {
				versions[i], oks[i] = snap.Version, true
			}
		}(i, tg)
	}
	wg.Wait()
	if ctx.Err() != nil {
		return // stop cut this round short: its failed probes are not the targets'
	}

	ft.mu.Lock()
	defer ft.mu.Unlock()
	var lo, hi uint64
	seen := false
	for i := range ft.targets {
		if !oks[i] {
			ft.per[i].Errors++
			continue
		}
		v := versions[i]
		p := &ft.per[i]
		if p.MinVersion == 0 || v < p.MinVersion {
			p.MinVersion = v
		}
		if v > p.MaxVersion {
			p.MaxVersion = v
		}
		p.LastVersion = v
		if !seen || v < lo {
			lo = v
		}
		if !seen || v > hi {
			hi = v
		}
		seen = true
	}
	if !seen {
		return
	}
	ft.samples++
	if skew := hi - lo; skew > ft.maxSkew {
		ft.maxSkew = skew
	}
}

// stop halts sampling and folds the observations into the report block.
func (ft *fleetTracker) stop(budget int64) *fleetReport {
	ft.cancel()
	<-ft.done
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return &fleetReport{
		Targets:    ft.targets,
		Samples:    ft.samples,
		MaxSkew:    ft.maxSkew,
		SkewBudget: budget,
		SkewOK:     budget < 0 || ft.maxSkew <= uint64(budget),
		PerTarget:  append([]fleetTargetReport(nil), ft.per...),
	}
}

// --- request execution ---

// httpIssuer drives real HTTP requests with a keep-alive client. It is
// per-worker and must not be shared across goroutines.
type httpIssuer struct {
	client  *http.Client
	rng     *rand.Rand
	sources int
	topkURL string
	snapURL string
	base    string
}

func newHTTPIssuer(base string, numSources, worker, topkN int) *httpIssuer {
	return &httpIssuer{
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        0,
				MaxIdleConnsPerHost: 4,
			},
		},
		rng:     rand.New(rand.NewSource(int64(worker)*7919 + 17)),
		sources: numSources,
		topkURL: fmt.Sprintf("%s/v1/topk?n=%d", base, topkN),
		snapURL: base + "/v1/snapshot",
		base:    base,
	}
}

// issue executes one request of the given kind and returns the HTTP
// status (0 on transport error).
func (c *httpIssuer) issue(kind reqKind) int {
	var u string
	switch kind {
	case kindTopK:
		u = c.topkURL
	case kindRank:
		u = fmt.Sprintf("%s/v1/rank/%d", c.base, c.rng.Intn(c.sources))
	case kindCompare:
		u = fmt.Sprintf("%s/v1/compare?a=%d&b=%d", c.base, c.rng.Intn(c.sources), c.rng.Intn(c.sources))
	default:
		u = c.snapURL
	}
	resp, err := c.client.Get(u)
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// --- the closed loop ---

type runSpec struct {
	name string
	// targets are pinned to workers round-robin, so every target carries
	// load and the skew tracker measures replicas that are being read.
	targets     []string
	sources     int
	concurrency int
	mix         mixTable
	topkN       int
	duration    time.Duration
}

// latHist is a per-worker log-scale latency histogram: 4 sub-buckets
// per power of two of nanoseconds, good to ~12% relative error.
type latHist struct {
	buckets [256]uint64
	max     time.Duration
}

func histIdx(d time.Duration) int {
	ns := uint64(d)
	if ns < 8 {
		return int(ns) / 2 // 2 ns wide, like the 8..15 ns buckets
	}
	b := bits.Len64(ns) // >= 4
	sub := (ns >> (b - 3)) & 3
	i := (b-3)*4 + int(sub)
	if i > 255 {
		return 255
	}
	return i
}

// histLowerBound inverts histIdx: the smallest duration in bucket i.
func histLowerBound(i int) time.Duration {
	if i < 4 {
		return time.Duration(2 * i)
	}
	b := i/4 + 3
	sub := uint64(i % 4)
	return time.Duration((4 + sub) << (b - 3))
}

func (h *latHist) observe(d time.Duration) {
	h.buckets[histIdx(d)]++
	if d > h.max {
		h.max = d
	}
}

func (h *latHist) merge(o *latHist) {
	for i, v := range o.buckets {
		h.buckets[i] += v
	}
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *latHist) quantile(q float64) float64 {
	var total uint64
	for _, v := range h.buckets {
		total += v
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i, v := range h.buckets {
		if cum+v > rank {
			lo := histLowerBound(i).Seconds()
			hi := histLowerBound(i + 1).Seconds()
			frac := (float64(rank-cum) + 0.5) / float64(v)
			return lo + frac*(hi-lo)
		}
		cum += v
	}
	return h.max.Seconds()
}

func runLoad(ctx context.Context, spec runSpec) runResult {
	type workerStats struct {
		hist     latHist
		requests uint64
		errors   uint64
		classes  [6]int64 // index status/100; 0 = transport error
	}
	stats := make([]workerStats, spec.concurrency)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	start := time.Now()

	for w := 0; w < spec.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			iss := newHTTPIssuer(spec.targets[w%len(spec.targets)], spec.sources, w, spec.topkN)
			st := &stats[w]
			rng := rand.New(rand.NewSource(int64(w) + 1))
			total := spec.mix.total()
			for {
				select {
				case <-stop:
					return
				case <-ctx.Done():
					return
				default:
				}
				kind := spec.mix.pick(rng.Intn(total))
				t0 := time.Now()
				status := iss.issue(kind)
				st.hist.observe(time.Since(t0))
				st.requests++
				cls := status / 100
				if cls < 0 || cls > 5 {
					cls = 0
				}
				st.classes[cls]++
				if status == 0 || status >= 500 {
					st.errors++
				}
			}
		}(w)
	}
	timer := time.NewTimer(spec.duration)
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	var merged latHist
	res := runResult{
		Name:          spec.name,
		Concurrency:   spec.concurrency,
		StatusClasses: map[string]int64{},
		DurationS:     elapsed.Seconds(),
	}
	for i := range stats {
		merged.merge(&stats[i].hist)
		res.Requests += stats[i].requests
		res.Errors += stats[i].errors
		for cls, n := range stats[i].classes {
			if n == 0 {
				continue
			}
			key := fmt.Sprintf("%dxx", cls)
			if cls == 0 {
				key = "transport_error"
			}
			res.StatusClasses[key] += n
		}
	}
	res.RPS = float64(res.Requests) / elapsed.Seconds()
	res.Latency = latencySummary{
		P50: merged.quantile(0.50),
		P90: merged.quantile(0.90),
		P99: merged.quantile(0.99),
		Max: merged.max.Seconds(),
	}
	return res
}
