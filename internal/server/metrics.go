package server

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
)

// latencyBounds are the histogram bucket upper bounds in seconds,
// spanning sub-millisecond index lookups to slow multi-second rebuilds.
// Declared as an array so the bucket count is a compile-time constant
// for the shard layout.
var latencyBounds = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// statusClasses partitions response codes for the request counters.
var statusClasses = []string{"2xx", "3xx", "4xx", "5xx"}

// statShard is one independent stripe of an endpoint's counters. Shards
// are updated with plain atomics and padded so adjacent shards never
// share a cache line; the hot path therefore takes no lock and suffers
// no cross-core counter ping-pong.
type statShard struct {
	byClass [4]atomic.Uint64
	count   atomic.Uint64
	sumNS   atomic.Uint64
	shed    atomic.Uint64
	buckets [len(latencyBounds) + 1]atomic.Uint64 // last is +Inf
	_       [8]byte                               // pad to a cache-line multiple (192 bytes)
}

// mergedStats is a point-in-time sum of every shard, used by the
// exporters and accessors (never on the request path).
type mergedStats struct {
	byClass [4]uint64
	buckets [len(latencyBounds) + 1]uint64
	count   uint64
	sumNS   uint64
	shed    uint64
}

// endpointStats is one endpoint's sharded counter set.
type endpointStats struct {
	shards []statShard
}

func (es *endpointStats) merge() mergedStats {
	var m mergedStats
	for i := range es.shards {
		sh := &es.shards[i]
		for c := range m.byClass {
			m.byClass[c] += sh.byClass[c].Load()
		}
		for b := range m.buckets {
			m.buckets[b] += sh.buckets[b].Load()
		}
		m.count += sh.count.Load()
		m.sumNS += sh.sumNS.Load()
		m.shed += sh.shed.Load()
	}
	return m
}

// Metrics is a fixed-shape, stdlib-only metrics registry exposed in
// Prometheus text format at /metrics. Endpoints are registered up front
// and counters are sharded, so Observe never allocates and concurrent
// observers on different cores do not contend on one cache line.
type Metrics struct {
	start     time.Time
	names     []string
	endpoints map[string]*endpointStats
	shardMask uint32
}

// NewMetrics registers the given endpoint names. The shard count is
// sized to GOMAXPROCS (rounded up to a power of two, capped at 64).
func NewMetrics(endpoints ...string) *Metrics {
	shards := 1
	for shards < runtime.GOMAXPROCS(0) && shards < 64 {
		shards <<= 1
	}
	m := &Metrics{
		start:     time.Now(),
		names:     append([]string(nil), endpoints...),
		endpoints: make(map[string]*endpointStats, len(endpoints)),
		shardMask: uint32(shards - 1),
	}
	sort.Strings(m.names)
	for _, name := range m.names {
		m.endpoints[name] = &endpointStats{shards: make([]statShard, shards)}
	}
	return m
}

// shardIdx spreads observations across shards. There is no portable way
// to learn the current P without unsafe tricks, so it hashes the
// observed duration instead: concurrent requests finish at distinct
// nanosecond timestamps with effectively random low bits, and the
// golden-ratio multiply diffuses those into the shard index. Any skew
// costs only a little contention, never correctness.
func (m *Metrics) shardIdx(d time.Duration) uint32 {
	return uint32((uint64(d)*0x9E3779B97F4A7C15)>>32) & m.shardMask
}

// Observe records one completed request. Unknown endpoints are dropped
// silently (they cannot occur when handlers are wired via instrument).
func (m *Metrics) Observe(endpoint string, code int, d time.Duration) {
	es, ok := m.endpoints[endpoint]
	if !ok {
		return
	}
	sh := &es.shards[m.shardIdx(d)]
	class := code/100 - 2
	if class < 0 || class > 3 {
		class = 3
	}
	sh.byClass[class].Add(1)
	sh.count.Add(1)
	sh.sumNS.Add(uint64(d.Nanoseconds()))
	sec := d.Seconds()
	idx := len(latencyBounds)
	for i, b := range latencyBounds {
		if sec <= b {
			idx = i
			break
		}
	}
	sh.buckets[idx].Add(1)
}

// ObserveShed records one request rejected by the in-flight cap.
func (m *Metrics) ObserveShed(endpoint string) {
	if es, ok := m.endpoints[endpoint]; ok {
		es.shards[0].shed.Add(1)
	}
}

// Shed returns the shed count for one endpoint.
func (m *Metrics) Shed(endpoint string) uint64 {
	es, ok := m.endpoints[endpoint]
	if !ok {
		return 0
	}
	return es.merge().shed
}

// Quantile estimates the q-quantile (0 < q < 1) of one endpoint's
// request latency in seconds from the merged histogram, interpolating
// linearly within the containing bucket. Observations beyond the last
// finite bound clamp to it. Returns 0 with no observations.
func (m *Metrics) Quantile(endpoint string, q float64) float64 {
	es, ok := m.endpoints[endpoint]
	if !ok {
		return 0
	}
	return quantileFromBuckets(es.merge(), q)
}

func quantileFromBuckets(st mergedStats, q float64) float64 {
	if st.count == 0 {
		return 0
	}
	rank := q * float64(st.count)
	cum, lower := 0.0, 0.0
	for i, upper := range latencyBounds {
		c := float64(st.buckets[i])
		if c > 0 && cum+c >= rank {
			frac := (rank - cum) / c
			if frac < 0 {
				frac = 0
			}
			return lower + (upper-lower)*frac
		}
		cum += c
		lower = upper
	}
	return latencyBounds[len(latencyBounds)-1]
}

// WriteText renders the registry in Prometheus text exposition format,
// including snapshot gauges supplied by the caller. staleSeconds is the
// age of the serving snapshot (0 when staleness is not tracked).
func (m *Metrics) WriteText(w io.Writer, snapVersion, publishes uint64, sources int, staleSeconds float64) {
	writeMetric(w, "srserve_uptime_seconds", "gauge", "Seconds since the server started.", "%.3f", time.Since(m.start).Seconds())
	writeMetric(w, "srserve_snapshot_version", "gauge", "Version of the snapshot being served.", "%d", snapVersion)
	writeMetric(w, "srserve_snapshot_publishes_total", "counter", "Snapshots published since start.", "%d", publishes)
	writeMetric(w, "srserve_snapshot_sources", "gauge", "Sources in the served snapshot.", "%d", sources)
	writeMetric(w, "srserve_snapshot_stale_seconds", "gauge", "Age of the serving snapshot.", "%.3f", staleSeconds)

	merged := make(map[string]mergedStats, len(m.names))
	for _, name := range m.names {
		merged[name] = m.endpoints[name].merge()
	}

	fmt.Fprintf(w, "# HELP srserve_requests_shed_total Requests rejected by the in-flight cap, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE srserve_requests_shed_total counter\n")
	for _, name := range m.names {
		if v := merged[name].shed; v > 0 {
			fmt.Fprintf(w, "srserve_requests_shed_total{endpoint=%q} %d\n", name, v)
		}
	}

	fmt.Fprintf(w, "# HELP srserve_requests_total Requests served, by endpoint and status class.\n")
	fmt.Fprintf(w, "# TYPE srserve_requests_total counter\n")
	for _, name := range m.names {
		st := merged[name]
		for i, class := range statusClasses {
			if v := st.byClass[i]; v > 0 {
				fmt.Fprintf(w, "srserve_requests_total{endpoint=%q,class=%q} %d\n", name, class, v)
			}
		}
	}

	fmt.Fprintf(w, "# HELP srserve_request_seconds Request latency histogram, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE srserve_request_seconds histogram\n")
	for _, name := range m.names {
		st := merged[name]
		if st.count == 0 {
			continue
		}
		var cum uint64
		for i, b := range latencyBounds {
			cum += st.buckets[i]
			fmt.Fprintf(w, "srserve_request_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", name, b, cum)
		}
		cum += st.buckets[len(latencyBounds)]
		fmt.Fprintf(w, "srserve_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "srserve_request_seconds_sum{endpoint=%q} %.6f\n", name, float64(st.sumNS)/1e9)
		fmt.Fprintf(w, "srserve_request_seconds_count{endpoint=%q} %d\n", name, st.count)
	}

	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p99", 0.99}} {
		fmt.Fprintf(w, "# HELP srserve_request_seconds_%s Estimated %s request latency from the fixed-bucket histogram.\n", q.name, q.name)
		fmt.Fprintf(w, "# TYPE srserve_request_seconds_%s gauge\n", q.name)
		for _, name := range m.names {
			st := merged[name]
			if st.count == 0 {
				continue
			}
			fmt.Fprintf(w, "srserve_request_seconds_%s{endpoint=%q} %.9f\n", q.name, name, quantileFromBuckets(st, q.q))
		}
	}
}

// WriteSolverText renders per-algorithm solver convergence gauges for
// the served snapshot: iterations, residual at convergence, solve wall
// time, whether the solve was warm-started, its precision, and which
// row-sum pass the host's kernels run. It appends to the main
// WriteText exposition (kept separate so the existing series' byte
// format is untouched); a nil snapshot writes nothing.
func (m *Metrics) WriteSolverText(w io.Writer, snap *Snapshot) {
	if snap == nil {
		return
	}
	gauge := func(name, help, format string, value func(*ScoreSet) any) {
		fmt.Fprintf(w, "# HELP srserve_solver_%s %s\n# TYPE srserve_solver_%s gauge\n", name, help, name)
		for _, a := range snap.Algos() {
			fmt.Fprintf(w, "srserve_solver_%s{algo=%q} "+format+"\n", name, a, value(snap.Set(a)))
		}
	}
	gauge("iterations", "Solver iterations for the served snapshot, by algorithm.", "%d",
		func(ss *ScoreSet) any { return ss.Stats().Iterations })
	gauge("residual", "Solver residual at convergence, by algorithm.", "%g",
		func(ss *ScoreSet) any { return ss.Stats().Residual })
	gauge("seconds", "Each algorithm's share of the served snapshot's solve wall time, charged in completion order (first set from the stage start, each later set from the previous completion), so the shares sum to the stage even when solves overlap.", "%.6f",
		func(ss *ScoreSet) any { return ss.SolveTime().Seconds() })
	gauge("warm_start", "Whether the solve started from the builder's retained state (1) or cold (0).", "%d",
		func(ss *ScoreSet) any { return boolGauge(ss.WarmStarted()) })
	fmt.Fprintf(w, "# HELP srserve_solver_rowsums Which row-sum pass this host's solves run at either precision: avx2, or the portable go loops (same bits, a quarter to a third longer per iteration).\n")
	fmt.Fprintf(w, "# TYPE srserve_solver_rowsums gauge\n")
	fmt.Fprintf(w, "srserve_solver_rowsums{impl=%q} 1\n", linalg.RowSumsImpl())
}

// writeMetric writes one unlabeled series, value v in format, under its
// HELP and TYPE lines.
func writeMetric(w io.Writer, name, kind, help, format string, v any) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s "+format+"\n", name, help, name, kind, name, v)
}

// boolGauge renders a boolean gauge.
func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}

// WriteBuildText renders the solve branches of the builder's last
// successful build: each branch's wall time and whether the two ran at
// once, so the build's critical path — the longer branch — is read off
// /metrics. A nil builder, or one that has not built yet, writes nothing.
func (m *Metrics) WriteBuildText(w io.Writer, b *Builder) {
	if b == nil {
		return
	}
	info, ok := b.LastBuild()
	if !ok {
		return
	}
	fmt.Fprintf(w, "# HELP srserve_build_branch_seconds Wall time of each solve branch of the last build: srsr (proximity, κ, throttled solve) and baselines (PageRank and TrustRank).\n")
	fmt.Fprintf(w, "# TYPE srserve_build_branch_seconds gauge\n")
	fmt.Fprintf(w, "srserve_build_branch_seconds{branch=\"srsr\"} %.6f\n", info.SRSRWall.Seconds())
	fmt.Fprintf(w, "srserve_build_branch_seconds{branch=\"baselines\"} %.6f\n", info.BaselinesWall.Seconds())
	writeMetric(w, "srserve_build_branches_concurrent", "gauge", "Whether the last build ran its two solve branches at once, each on half the workers (1), or in turn (0).", "%d", boolGauge(info.Concurrent))
}

// WritePublishText renders what the store's publishes did with their
// score sets, so an expensive publish is explained from /metrics: a set
// is reused when the publish carried its index and rendered responses
// over from the outgoing snapshot, rendered when the publish rendered
// it. Beside them, what the last publish cost and what
// the served snapshot's pre-rendered text holds in memory.
func (m *Metrics) WritePublishText(w io.Writer, st *Store) {
	fmt.Fprintf(w, "# HELP srserve_publish_sets_total Score sets published, by what the publish did with them.\n")
	fmt.Fprintf(w, "# TYPE srserve_publish_sets_total counter\n")
	for outcome, name := range publishOutcomeNames {
		fmt.Fprintf(w, "srserve_publish_sets_total{outcome=%q} %d\n", name, st.setOutcomes[outcome].Load())
	}
	writeMetric(w, "srserve_publish_last_seconds", "gauge", "Wall time of the last publish's finalize and swap.", "%.6f", time.Duration(st.lastPublish.Load()).Seconds())
	size := 0
	if snap := st.Current(); snap != nil {
		size = snap.resp.textBytes()
	}
	writeMetric(w, "srserve_snapshot_cache_bytes", "gauge", "Pre-rendered text the served snapshot retains, offsets included: top-k entries, score texts, entry heads and tails, decimals and document heads.", "%d", size)
}

// WriteRefreshText renders refresher health gauges. It appends to the
// main exposition (kept separate so the existing series' byte format is
// untouched); a nil refresher writes nothing.
func (m *Metrics) WriteRefreshText(w io.Writer, r *Refresher) {
	if r == nil {
		return
	}
	writeMetric(w, "srserve_refresh_consecutive_failures", "gauge", "Builds failed in a row since the last successful publish.", "%d", r.ConsecutiveFailures())
	writeMetric(w, "srserve_refresh_last_build_seconds", "gauge", "Wall time of the most recent successful build.", "%.6f", r.LastBuildDuration().Seconds())
}

// WriteCorpusLoadText renders what reading the corpus file at boot cost;
// a server whose corpus was generated in process (nil) writes nothing.
func (m *Metrics) WriteCorpusLoadText(w io.Writer, st *pagegraph.LoadStats) {
	if st == nil {
		return
	}
	writeMetric(w, "srserve_corpus_load_seconds", "gauge", "Wall time of reading the corpus file at boot.", "%.6f", st.Seconds)
	writeMetric(w, "srserve_corpus_bytes", "gauge", "Size of the corpus file read at boot.", "%d", st.Bytes)
}

// Requests returns the total request count for one endpoint (all status
// classes); tests use it to assert instrumentation without parsing the
// text format.
func (m *Metrics) Requests(endpoint string) uint64 {
	es, ok := m.endpoints[endpoint]
	if !ok {
		return 0
	}
	return es.merge().count
}
