package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// delta_refresh: one long-lived streaming pipeline, one publisher ring
// and one replica. Cycles of three churn classes are interleaved round
// robin; a cycle is Apply(batch) → Refresh → replica SyncNow → first
// /v1/topk at the new version. It exercises incremental aggregation,
// solve skipping, warm solves, delta-aware publish and delta frames, and
// bypasses corpus read, cold aggregation, full finalize and full sync.

const (
	deltaMinRounds = 40
	// deltaChurnShare is the share of the corpus links one batch touches.
	deltaChurnShare = 0.001
	deltaScoreTol   = 1e-6
)

// deltaFleet is the long-lived state of the workload.
type deltaFleet struct {
	pg      *pageGraph
	ds      *dataset
	builder *store
	pipe    *pipeline
	replica *replicaNode
	topk    func() (status int, version uint64)
	churn   *churn
	links   int
}

func newDeltaFleet(cfg config) (*deltaFleet, time.Duration, error) {
	t0 := time.Now()
	ds, err := generateCorpus(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, 0, err
	}
	genTime := time.Since(t0)
	f := &deltaFleet{pg: ds.Pages, ds: ds, builder: newStore()}
	f.links = max(1, int(deltaChurnShare*float64(numLinks(f.pg))))
	if f.pipe, err = newPipeline(f.pg, ds, cfg.Workers, f.builder); err != nil {
		return nil, 0, err
	}
	if _, err = refresh(f.pipe); err != nil {
		return nil, 0, err
	}
	f.replica = newReplica(f.builder, 8)
	if err = f.replica.syncNow(); err != nil {
		return nil, 0, err
	}
	h, w, req := serveHandler(f.replica.store), newRespWriter(), newRequest("/v1/topk?n=10")
	f.topk = func() (int, uint64) {
		w.serve(h, req)
		return w.status, w.version()
	}
	f.churn = newChurn(f.pg, cfg.Seed)
	return f, genTime, nil
}

// cycleResult is one churn cycle.
type cycleResult struct {
	total, apply, refresh, sync time.Duration
	stats                       refreshStats
	deltas                      int
	frameBytes                  int
}

// cycle applies one batch and follows it until the replica serves it.
// The batch is generated before the clock starts: it is the benchmark's
// input, not the program's work.
func (f *deltaFleet) cycle(o *op, batch []delta) (res cycleResult, err error) {
	defer func() {
		if err != nil {
			o.finish()
		}
	}()
	res.deltas = len(batch)
	res.apply = o.call("stream.apply", func() { err = applyDeltas(f.pipe, batch) })
	if err != nil {
		return res, fmt.Errorf("apply: %w", err)
	}
	res.refresh = o.callWith("stream.refresh", func() []stage {
		res.stats, err = refresh(f.pipe)
		// Refresh reports its own stages; RefreshStats.Solve covers the
		// SRSR refresh and both rank baselines.
		return []stage{
			{"source.emit", res.stats.Emit},
			{"core.refresh_solves", res.stats.Solve},
			{"server.publish_delta", res.stats.Publish},
		}
	})
	if err != nil {
		return res, fmt.Errorf("refresh: %w", err)
	}
	res.sync = o.call("replica.delta_sync", func() { err = f.replica.syncNow() })
	if err != nil {
		return res, fmt.Errorf("sync: %w", err)
	}
	res.frameBytes = f.replica.frameBytes
	var status int
	var version uint64
	o.call("server.first_topk", func() { status, version = f.topk() })
	res.total = o.finish()
	if status != 200 || version != res.stats.Version {
		return res, fmt.Errorf("top-k: status %d at version %d, builder published %d", status, version, res.stats.Version)
	}
	if got, want := fingerprint(currentSnapshot(f.replica.store)), fingerprint(currentSnapshot(f.builder)); got != want {
		return res, fmt.Errorf("replica fingerprint %016x, builder %016x", got, want)
	}
	return res, nil
}

func runDeltaRefresh(r *run) error {
	cfg := r.cfg
	var f *deltaFleet
	var genTimes samples
	err := r.setup(func() error {
		var genTime time.Duration
		var err error
		if f, genTime, err = newDeltaFleet(cfg); err != nil {
			return err
		}
		genTimes.add(genTime)
		// One warm-up cycle per class settles the warm lineage, like a
		// refresher that has been running.
		for _, class := range churnClasses {
			if _, err := f.cycle(untracedOp("warmup"), f.churn.batch(class, f.links)); err != nil {
				return fmt.Errorf("warm-up %s: %w", class, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.corpus(numPages(f.pg), numLinks(f.pg), numSources(f.pg))

	byClass := map[string][]cycleResult{}
	totals := map[string]*relSamples{}
	for _, class := range churnClasses {
		totals[class] = &relSamples{}
	}
	deltaBase, fullBase := f.replica.deltaSyncs(), f.replica.fullSyncs()
	r.startTimed()
	deadline := time.Now().Add(cfg.budget())
	for round := 0; round < deltaMinRounds || time.Now().Before(deadline); round++ {
		kernel := r.cal.both(1) // one kernel run per round of three cycles
		for _, class := range churnClasses {
			batch := f.churn.batch(class, f.links)
			r.rep.Attempted++
			res, err := f.cycle(r.tr.beginOp(round, class), batch)
			if err != nil {
				r.fail("%s cycle %d: %v", class, round, err)
				continue
			}
			byClass[class] = append(byClass[class], res)
			totals[class].add(res.total, kernel)
		}
	}
	peak, used := r.endTimed()

	for _, class := range churnClasses {
		if len(totals[class].rel) == 0 {
			return fmt.Errorf("no %s cycle succeeded", class)
		}
	}
	rewire := totals["rewire"]
	// A percentile above the median is reported only with ten samples
	// beyond it; forty rounds put ten beyond p75.
	if q, ok := tailPercentile(len(rewire.rel)); !ok || q < 0.75 {
		return fmt.Errorf("%d rewire cycles succeeded, too few to report their p75", len(rewire.rel))
	}
	r.endToEnd(peak, [4]metric{
		totals["recrawl"].metric(), totals["drift"].metric(), rewire.metric(),
		{"", quantile(rewire.rel, 0.75), "x", len(rewire.rel)},
	})
	for _, class := range churnClasses {
		r.named(class+"_to_served_ms", median(totals[class].raw.in(time.Millisecond)), "ms", len(totals[class].raw))
	}
	r.named("rewire_to_served_p75_ms", quantile(rewire.raw.in(time.Millisecond), 0.75), "ms", len(rewire.raw))

	// ---- verification pass (untimed) ----
	cold, err := buildSourceGraph(f.pg, cfg.Workers)
	if err != nil {
		return err
	}
	streamed := emitSourceGraph(f.pipe)
	r.check("streamed_source_graph_bitwise", sameSourceGraph(streamed, cold), "streamed aggregation against source.Build of the mutated page graph")
	coldSnap, err := buildSnapshotCold(f.pg, f.ds, cfg.Workers)
	if err != nil {
		return err
	}
	worst := 0.0
	cur := currentSnapshot(f.builder)
	for _, a := range snapshotAlgos(coldSnap) {
		warm := snapshotSet(cur, a)
		if warm == nil || len(setScores(warm)) != len(setScores(snapshotSet(coldSnap, a))) {
			worst = math.Inf(1)
			continue
		}
		for i, c := range setScores(snapshotSet(coldSnap, a)) {
			worst = math.Max(worst, math.Abs(setScores(warm)[i]-c))
		}
	}
	r.check("scores_match_cold", worst <= deltaScoreTol, "largest score difference from a cold server.BuildSnapshot %.3g (tolerance %g)", worst, deltaScoreTol)

	r.verified()
	if cfg.Traced {
		deltaLayers(r, f, byClass, genTimes, deltaBase, fullBase)
	}
	r.finish(used)
	return nil
}

func deltaLayers(r *run, f *deltaFleet, byClass map[string][]cycleResult, genTimes samples, deltaBase, fullBase uint64) {
	r.layer("gen.generate_s", median(genTimes.in(time.Second)), "s", len(genTimes))
	ms := func(name string, pick func(cycleResult) time.Duration, rs []cycleResult) {
		var s samples
		for _, c := range rs {
			s.add(pick(c))
		}
		r.layer(name, median(s.in(time.Millisecond)), "ms", len(s))
	}
	var deltas, kappa, proxCold int
	var applyTime time.Duration
	for _, class := range churnClasses {
		rs := byClass[class]
		ms("stream.apply_ms."+class, func(c cycleResult) time.Duration { return c.apply }, rs)
		ms("stream.refresh_ms."+class, func(c cycleResult) time.Duration { return c.refresh }, rs)
		ms("source.emit_ms."+class, func(c cycleResult) time.Duration { return c.stats.Emit }, rs)
		ms("stream.solve_ms."+class, func(c cycleResult) time.Duration { return c.stats.Solve }, rs)
		ms("server.publish_delta_ms."+class, func(c cycleResult) time.Duration { return c.stats.Publish }, rs)
		ms("replica.delta_sync_ms."+class, func(c cycleResult) time.Duration { return c.sync }, rs)
		var kb []float64
		for _, c := range rs {
			kb = append(kb, float64(c.frameBytes)/1e3)
			deltas += c.deltas
			applyTime += c.apply
			kappa += c.stats.KappaChanged
			if c.stats.ProximityCold {
				proxCold++
			}
		}
		r.layer("replica.delta_frame_kb."+class, median(kb), "kB", len(kb))
	}
	r.layer("stream.apply_kdeltas_per_s", float64(deltas)/1e3/math.Max(applyTime.Seconds(), 1e-9), "kdeltas/s", deltas)
	skipped := func(rs []cycleResult, pred func(refreshStats) bool) float64 {
		n := 0
		for _, c := range rs {
			if pred(c.stats) {
				n++
			}
		}
		return float64(n) / float64(max(len(rs), 1))
	}
	r.layer("stream.solve_skip_ratio", skipped(byClass["recrawl"], func(s refreshStats) bool { return s.SolveSkipped }), "ratio", len(byClass["recrawl"]))
	r.layer("stream.baseline_skip_ratio", skipped(byClass["drift"], func(s refreshStats) bool { return s.PageRankSkipped && s.TrustRankSkipped }), "ratio", len(byClass["drift"]))
	r.layer("stream.proximity_cold_count", float64(proxCold), "count", 1)
	r.layer("throttle.kappa_changed", float64(kappa), "count", 1)
	nd, nf := f.replica.deltaSyncs()-deltaBase, f.replica.fullSyncs()-fullBase
	r.layer("replica.delta_ratio", float64(nd)/float64(max(nd+nf, 1)), "ratio", int(nd+nf))
	r.layer("replica.torn_rejected", float64(f.replica.tornRejected()), "count", 1)
}

// sameSourceGraph reports whether two source graphs are bitwise equal:
// consensus counts, transition weights, edge count, labels, page counts.
func sameSourceGraph(a, b *sourceGraph) bool {
	sameCSR := func(x, y *csr) bool {
		if x.Rows != y.Rows || x.ColsN != y.ColsN || !slices.Equal(x.RowPtr, y.RowPtr) || !slices.Equal(x.Cols, y.Cols) || len(x.Vals) != len(y.Vals) {
			return false
		}
		for i := range x.Vals {
			if math.Float64bits(x.Vals[i]) != math.Float64bits(y.Vals[i]) {
				return false
			}
		}
		return true
	}
	return sameCSR(a.Counts, b.Counts) && sameCSR(a.T, b.T) && a.NumEdges == b.NumEdges &&
		slices.Equal(a.Labels, b.Labels) && slices.Equal(a.PageCount, b.PageCount)
}
