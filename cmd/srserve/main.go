// Command srserve is the online serving layer: it loads a corpus,
// computes SRSR / source-level PageRank / TrustRank score snapshots
// offline, and answers ranking queries over HTTP from an immutable
// in-memory snapshot. A background refresher periodically re-reads the
// spam-label file, rebuilds through the same stateful builder — so a
// cycle costs what the labels changed — and hot-swaps the snapshot
// without blocking readers.
//
// Usage:
//
//	srserve -preset UK2002 -scale 0.01 -addr :8080
//	srserve -pages corpus.pages -spam corpus.spam -refresh 5m
//	srserve -preset UK2002 -scale 0.01 -scores mymodel=scores.bin
//	srserve -replica-of http://builder:8080 -addr :8081
//
// In replica mode (-replica-of) no corpus is loaded and nothing is
// computed locally: the process pulls verified snapshot frames from the
// builder's /v1/replica/snapshot endpoint (full on first sync, sparse
// deltas after), hot-swapping each into the local store. A replica that
// loses its builder keeps serving its last snapshot — flagged
// X-Snapshot-Stale once past -staleness-budget, with /healthz degraded
// so load balancers can route around it.
//
// Endpoints:
//
//	GET /v1/rank/{source}      standing of one source (ID or label)
//	GET /v1/topk?n=10&algo=    top-k ranked sources
//	GET /v1/compare?a=&b=      head-to-head comparison
//	GET /v1/snapshot           snapshot metadata
//	GET /healthz               liveness + snapshot version
//	GET /metrics               Prometheus text-format metrics
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers on the default mux, exposed only via -pprof-addr
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/replica"
	"sourcerank/internal/server"
	"sourcerank/internal/source"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		pagesPath = flag.String("pages", "", "binary corpus produced by graphgen (overrides -preset)")
		spamPath  = flag.String("spam", "", "spam-label file (one source ID per line); re-read on refresh")
		preset    = flag.String("preset", "UK2002", "generate this preset when -pages is not given")
		scale     = flag.Float64("scale", 0.01, "generator scale")
		seed      = flag.Uint64("seed", 1, "generator seed")
		alpha     = flag.Float64("alpha", 0.85, "mixing parameter α")
		topK      = flag.Int("throttle-topk", 0, "sources to throttle fully (0 = 2.7% of sources)")
		workers   = flag.Int("workers", 0, "solver goroutines (0 = GOMAXPROCS)")
		refresh   = flag.Duration("refresh", 0, "recompute+republish interval (0 disables)")
		maxBO     = flag.Duration("max-backoff", 0, "cap on the retry delay after failed refreshes (0 = 16x refresh interval)")
		staleTO   = flag.Duration("staleness-budget", 0, "snapshot age at which /healthz turns degraded (0 disables)")
		maxInFl   = flag.Int("max-inflight", 0, "concurrent requests allowed per data endpoint before shedding (0 = unlimited)")
		reqTO     = flag.Duration("request-timeout", 5*time.Second, "per-request timeout")
		scores    = flag.String("scores", "", "extra score vectors to serve, as name=path[,name=path...]")
		dumpDir   = flag.String("dump-scores", "", "write each computed score vector into this directory")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (off when empty; bind loopback only)")
		replicaOf = flag.String("replica-of", "", "run as a replica of this builder URL (no local corpus or solves)")
		syncIvl   = flag.Duration("sync-interval", 2*time.Second, "replica: steady-state time between builder pulls")
		syncTO    = flag.Duration("sync-timeout", 10*time.Second, "replica: per-pull timeout")
		syncBO    = flag.Duration("sync-max-backoff", 0, "replica: cap on retry delay after failed pulls (0 = 16x sync interval)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		// The profiling handlers live on the default mux, never on the
		// query mux, so they are unreachable unless this flag is set.
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	if *replicaOf != "" {
		runReplica(*replicaOf, replicaConfig{
			addr:     *addr,
			interval: *syncIvl,
			timeout:  *syncTO,
			backoff:  *syncBO,
			staleTO:  *staleTO,
			maxInFl:  *maxInFl,
			reqTO:    *reqTO,
		})
		return
	}

	pg, spam, name, corpusLoad, err := loadCorpus(*pagesPath, *preset, *scale, *seed)
	if err != nil {
		log.Fatalf("srserve: %v", err)
	}
	log.Printf("corpus %s: %d pages, %d links, %d sources", name, pg.NumPages(), pg.NumLinks(), pg.NumSources())

	extra, err := loadExtraScores(*scores)
	if err != nil {
		log.Fatalf("srserve: %v", err)
	}
	builder := &server.Builder{Config: server.BuildConfig{
		Alpha:   *alpha,
		TopK:    *topK,
		Workers: *workers,
		Name:    name,
		Extra:   extra,
	}}
	build, err := newBuild(pg, spam, *spamPath, builder)
	if err != nil {
		log.Fatalf("srserve: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	snap, err := build(ctx)
	if err != nil {
		log.Fatalf("srserve: initial snapshot: %v", err)
	}
	if *dumpDir != "" {
		if err := dumpScores(*dumpDir, snap); err != nil {
			log.Fatalf("srserve: dumping scores: %v", err)
		}
	}
	store := server.NewStore(snap)
	log.Printf("snapshot v%d ready in %v (algos: %v, %d spam labels, throttled top-%d, %s row sums)",
		snap.Version(), time.Since(start).Round(time.Millisecond), snap.Algos(), snap.Corpus().SpamLabeled, snap.KappaTopK(), linalg.RowSumsImpl())
	logSolverStats(snap)

	var refresher *server.Refresher
	if *refresh > 0 {
		ref := &server.Refresher{
			Store:      store,
			Build:      build,
			Interval:   *refresh,
			MaxBackoff: *maxBO,
			OnPublish: func(v uint64, s *server.Snapshot, took time.Duration) {
				log.Printf("published snapshot v%d in %v (%d spam labels)",
					v, took.Round(time.Millisecond), s.Corpus().SpamLabeled)
				logSolverStats(s)
			},
			OnError: func(err error) { log.Printf("refresh failed (still serving old snapshot): %v", err) },
		}
		go ref.Run(ctx)
		log.Printf("background refresh every %v", *refresh)
		refresher = ref
	}

	srv := server.New(store, server.Config{
		Addr:            *addr,
		RequestTimeout:  *reqTO,
		StalenessBudget: *staleTO,
		MaxInFlight:     *maxInFl,
		Refresher:       refresher,
		Builder:         builder,
		CorpusLoad:      corpusLoad,
		// Every builder distributes snapshots: replicas pull verified
		// frames from GET /v1/replica/snapshot (full on first sync,
		// deltas against the last 8 published versions after).
		SyncHandler: replica.NewPublisher(store, 8),
	})
	log.Printf("serving on %s", *addr)
	if err := srv.Run(ctx); err != nil {
		log.Fatalf("srserve: %v", err)
	}
	log.Printf("shut down cleanly")
}

// newBuild returns the one build srserve runs, at boot and on every
// refresh. The page graph never changes after boot, so neither does the
// source graph: it is aggregated once, and every call goes through
// builder over it, re-reading the label file (when there is one) first.
// Aggregating once is what lets a cycle carry: the builder carries the
// proximity walk and the baselines while the source graph's arrays are
// the ones they were solved over, and a second aggregation would make new
// ones. A cycle therefore costs what the labels changed — nothing but a
// residual probe when they did not — and a carried vector republishes as
// the previous snapshot's very array. Each build logs its account (see
// buildLine).
func newBuild(pg *pagegraph.Graph, spam []int32, spamPath string, builder *server.Builder) (server.BuildFunc, error) {
	sg, err := source.Build(pg, source.Options{Workers: builder.Config.Workers})
	if err != nil {
		return nil, fmt.Errorf("building source graph: %w", err)
	}
	corpus := server.Corpus{Pages: pg, Source: sg}
	return func(context.Context) (*server.Snapshot, error) {
		labels := spam
		if spamPath != "" {
			// Refresh semantics: the label file is the mutable input;
			// operators append newly-caught spam sources between cycles.
			fresh, err := readSpamLabels(spamPath, pg.NumSources())
			if err != nil {
				return nil, err
			}
			labels = fresh
		}
		snap, info, err := builder.Build(corpus, labels)
		if err == nil {
			log.Print(buildLine(snap, info))
		}
		return snap, err
	}, nil
}

// buildLine is one build's account: whether SRSR's solve was skipped, and
// otherwise which path settled κ — proximity carried over an unchanged
// structure, a warm or cold walk stopped at the iteration whose top-k gap
// cleared twice its error bound, or a contested boundary (with why)
// re-walked cold to tolerance — then how many κ entries flipped, which
// baselines were carried rather than re-solved or left out (TrustRank,
// when every source is labeled spam), whether the two re-solved in one
// sweep, and the wall time of each solve branch (SRSR;
// PageRank and TrustRank), whether they ran at once or in turn, which
// one set the build's length, and the iterations of each solve that ran.
func buildLine(snap *server.Snapshot, info server.BuildInfo) string {
	var srsr string
	switch d := info.Decision; {
	case snap.Set(server.AlgoSRSR) == nil:
		srsr = "srsr not computed (no spam labels)"
	case info.SolveSkipped:
		srsr = "srsr solve skipped (graph and labels unchanged)"
	case info.ProximityCarried:
		srsr = "srsr proximity carried (structure unchanged)"
	case d.Contested != "":
		srsr = fmt.Sprintf("srsr proximity contested (%s) → cold walk, %d iterations, boundary gap %.3g",
			d.Contested, d.Iterations, info.BoundaryGap)
	default:
		start := "warm"
		if info.ProximityCold {
			start = "cold"
		}
		srsr = fmt.Sprintf("srsr proximity decided %s at iteration %d (gap %.3g > 2·bound %.3g)",
			start, d.Iterations, info.BoundaryGap, d.Bound)
	}
	carried := func(algo server.Algo, skipped bool) string {
		switch {
		case snap.Set(algo) == nil:
			return "left out"
		case skipped:
			return "carried"
		}
		return "re-solved"
	}
	mode, longer, sweep := "in turn", "srsr", ""
	if info.BaselinesSwept {
		sweep = " in one sweep"
	}
	if info.Concurrent {
		mode = "at once"
	}
	if info.BaselinesWall > info.SRSRWall {
		longer = "baselines"
	}
	line := fmt.Sprintf("build: %s, %d κ flips; pagerank %s, trustrank %s%s; solves %s: srsr %.1f ms, baselines %.1f ms (%s set the length)",
		srsr, info.KappaChanged, carried(server.AlgoPageRank, info.PageRankSkipped), carried(server.AlgoTrustRank, info.TrustRankSkipped), sweep,
		mode, info.SRSRWall.Seconds()*1e3, info.BaselinesWall.Seconds()*1e3, longer)
	if set := snap.Set(server.AlgoSRSR); set != nil && !info.SolveSkipped && set.Stats().Iterations > 0 {
		line += fmt.Sprintf("; srsr solved in %d iterations", set.Stats().Iterations)
	}
	var solved []string // "pagerank solved in N", "trustrank in M"
	for _, algo := range []server.Algo{server.AlgoPageRank, server.AlgoTrustRank} {
		skipped := info.PageRankSkipped
		if algo == server.AlgoTrustRank {
			skipped = info.TrustRankSkipped
		}
		if set := snap.Set(algo); set != nil && !skipped && set.Stats().Iterations > 0 {
			verb := " solved"
			if solved != nil {
				verb = ""
			}
			solved = append(solved, fmt.Sprintf("%s%s in %d", algo, verb, set.Stats().Iterations))
		}
	}
	if solved != nil {
		line += "; " + strings.Join(solved, ", ") + " iterations"
	}
	return line
}

type replicaConfig struct {
	addr     string
	interval time.Duration
	timeout  time.Duration
	backoff  time.Duration
	staleTO  time.Duration
	maxInFl  int
	reqTO    time.Duration
}

// runReplica serves as a pull replica: an empty store filled by the
// sync loop, never by local computation. Data endpoints answer 503
// until the first successful sync; /healthz reports "starting" and the
// sync loop's state, so orchestration holds traffic until the replica
// converges.
func runReplica(builder string, rc replicaConfig) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	store := server.NewStore(nil)
	p := &replica.Puller{
		Builder:         strings.TrimRight(builder, "/"),
		Store:           store,
		Interval:        rc.interval,
		Timeout:         rc.timeout,
		MaxBackoff:      rc.backoff,
		StalenessBudget: rc.staleTO,
		OnSync: func(version uint64, encoding string, bytes int) {
			log.Printf("synced snapshot v%d from builder (%s transfer, %d bytes)", version, encoding, bytes)
		},
		OnError: func(err error) { log.Printf("sync failed (still serving last snapshot): %v", err) },
	}
	go p.Run(ctx)
	log.Printf("replica of %s: pulling every %v", builder, rc.interval)

	srv := server.New(store, server.Config{
		Addr:            rc.addr,
		RequestTimeout:  rc.reqTO,
		StalenessBudget: rc.staleTO,
		MaxInFlight:     rc.maxInFl,
		Replica:         p,
	})
	log.Printf("serving on %s", rc.addr)
	if err := srv.Run(ctx); err != nil {
		log.Fatalf("srserve: %v", err)
	}
	log.Printf("shut down cleanly")
}

// loadCorpus mirrors cmd/srank: a binary corpus file or a generated
// preset, with the preset's own spam labels (a corpus file has none; its
// labels are the -spam file's, which every build reads). The load stats
// are nil for a preset: nothing was read.
func loadCorpus(pagesPath, preset string, scale float64, seed uint64) (*pagegraph.Graph, []int32, string, *pagegraph.LoadStats, error) {
	if pagesPath == "" {
		p := gen.Preset(preset)
		if _, ok := gen.TableOneSources[p]; !ok {
			return nil, nil, "", nil, fmt.Errorf("unknown preset %q", preset)
		}
		ds, err := gen.GeneratePreset(p, scale, seed)
		if err != nil {
			return nil, nil, "", nil, err
		}
		return ds.Pages, ds.SpamSources, ds.Name, nil, nil
	}
	pg, st, err := pagegraph.ReadFile(pagesPath)
	if err != nil {
		return nil, nil, "", nil, err
	}
	log.Print(st)
	return pg, nil, pagesPath, &st, nil
}

// readSpamLabels parses one source ID per line, rejecting out-of-range
// entries, and returns the set in canonical form — ascending, each ID
// once — so a re-sorted or duplicated file is the same label set to the
// builder's skip logic and to CorpusInfo.SpamLabeled.
func readSpamLabels(path string, numSources int) ([]int32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spam []int32
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, err := strconv.Atoi(line)
		if err != nil || id < 0 || id >= numSources {
			return nil, fmt.Errorf("bad spam label %q", line)
		}
		spam = append(spam, int32(id))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	slices.Sort(spam)
	return slices.Compact(spam), nil
}

// loadExtraScores parses -scores name=path pairs via the linalg binary
// vector format.
func loadExtraScores(spec string) (map[server.Algo]linalg.Vector, error) {
	if spec == "" {
		return nil, nil
	}
	out := map[server.Algo]linalg.Vector{}
	for _, part := range strings.Split(spec, ",") {
		name, path, ok := strings.Cut(part, "=")
		if !ok || name == "" || path == "" {
			return nil, fmt.Errorf("bad -scores entry %q, want name=path", part)
		}
		v, err := linalg.ReadVectorFile(path)
		if err != nil {
			return nil, fmt.Errorf("-scores %s: loading %q: %w", name, path, err)
		}
		out[server.Algo(name)] = v
	}
	return out, nil
}

// logSolverStats prints each algorithm's convergence behaviour so
// operators can see iteration counts (and what the retained state saved)
// without a profiler.
func logSolverStats(snap *server.Snapshot) {
	for _, algo := range snap.Algos() {
		ss := snap.Set(algo)
		st := ss.Stats()
		mode := "cold"
		if ss.WarmStarted() {
			mode = "warm"
		}
		log.Printf("  %s: %d iterations, residual %.3g, converged=%v, solve %v (%s start)",
			algo, st.Iterations, st.Residual, st.Converged, ss.SolveTime().Round(time.Millisecond), mode)
	}
}

// dumpScores writes each algorithm's vector as dir/<algo>.vec plus a
// stats.json with per-algorithm solver convergence.
func dumpScores(dir string, snap *server.Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stats := make(map[string]any, len(snap.Algos()))
	for _, algo := range snap.Algos() {
		ss := snap.Set(algo)
		// Read-only use: the view skips the defensive copy of Scores.
		vec := ss.ScoresView()
		if err := linalg.WriteVectorFile(fmt.Sprintf("%s/%s.vec", dir, algo), vec); err != nil {
			return err
		}
		st := ss.Stats()
		stats[string(algo)] = map[string]any{
			"iterations":    st.Iterations,
			"residual":      st.Residual,
			"converged":     st.Converged,
			"solve_seconds": ss.SolveTime().Seconds(),
			"warm_started":  ss.WarmStarted(),
		}
	}
	payload, err := json.MarshalIndent(stats, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(fmt.Sprintf("%s/stats.json", dir), append(payload, '\n'), 0o644)
}
