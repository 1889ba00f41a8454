package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// serve_under_refresh: reads beside writes on one store. A client
// issues the serving mix through the handler in process while a
// publisher goroutine republishes a 5 %-perturbed snapshot on a fixed
// period. Phase A is one closed-loop client (a front-end that waits for
// each reply) and gives capacity; phase B is one open-loop client on a
// seeded Poisson schedule at a fixed rate, spin-paced, every request
// timed from when it was due. One client and one publisher are two
// threads, so the workload fits two cores. A publish made cheaper by
// rendering lazily shows as a gain elsewhere and as a loss here.

const (
	serveOpenRate     = 100_000 // requests per second in phase B
	servePublishEvery = 250 * time.Millisecond
	servePhaseAShare  = 0.4
	serveSlices       = 20
	serveWarmup       = 20_000
	// serveBodySample is the period, in requests, of capturing a
	// response body for the version and JSON checks.
	serveBodySample = 1024
	// serveSpanSample is the period, in requests, of recording a request
	// span in the traced run: a span per request at 100 000 req/s would
	// be a gigabyte of trace.
	serveSpanSample = 256
)

// bodySample is one captured response.
type bodySample struct {
	etagVersion uint64
	body        []byte
}

// versionSeen is when the client first got a response at a version.
type versionSeen struct {
	version uint64
	at      time.Time
}

// serveClient is the single client with its checks.
type serveClient struct {
	is *issuer
	// requests is read by the publisher, to count what the client got
	// through while a publish was in flight.
	requests atomic.Int64
	failed   int
	lastV    uint64
	regress  int
	seen     []versionSeen
	bodies   []bodySample
}

// do issues one request of kind k and applies the per-request checks.
func (c *serveClient) do(k reqKind) {
	sampled := c.requests.Add(1)%serveBodySample == 0
	c.is.w.capture = sampled
	if status := c.is.issue(k); status != 200 {
		c.failed++
	}
	v := c.is.w.version()
	if v != 0 && v != c.lastV {
		if v < c.lastV {
			c.regress++
		}
		c.lastV = v
		c.seen = append(c.seen, versionSeen{v, time.Now()})
	}
	if sampled {
		c.bodies = append(c.bodies, bodySample{v, slices.Clone(c.is.w.body)})
	}
}

// firstSeen is when the client first saw version v or a later one.
func (c *serveClient) firstSeen(v uint64) (time.Time, bool) {
	for _, s := range c.seen {
		if s.version >= v {
			return s.at, true
		}
	}
	return time.Time{}, false
}

// publishRecord is one republish under load.
type publishRecord struct {
	version                  uint64
	start, end               time.Time // perturbed scores in hand → Publish returned
	assemble, publish, total time.Duration
	kernel                   time.Duration
	served                   int64 // requests the client completed between start and end
}

// publisherLoop republishes perturbed scores every period until stop is
// closed, timing assembly (NewScoreSet ×3 + NewSnapshot) and the Publish
// call apart. It runs the reference kernel, on its own goroutine, right
// before each publish.
type publisherLoop struct {
	records []publishRecord
	failed  int
	tr      *tracer
	cal     *calibrator
}

func (p *publisherLoop) run(st *store, served *atomic.Int64, seed uint64, period time.Duration, stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(int64(seed)*15485863 + 5))
	tick := time.NewTicker(period)
	defer tick.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		cur := currentSnapshot(st)
		vecs := make(map[algo]vector)
		for _, a := range snapshotAlgos(cur) {
			v := slices.Clone(setScores(snapshotSet(cur, a)))
			for j := 0; j < len(v)/20+1; j++ {
				v[rng.Intn(len(v))] *= 0.9 + 0.2*rng.Float64()
			}
			vecs[a] = v
		}
		rec := publishRecord{kernel: p.cal.single()}
		// The operation starts with the perturbed scores in hand.
		o := p.tr.beginOp(i, "publish")
		var next *snapshot
		var err error
		rec.start, rec.served = time.Now(), -served.Load()
		rec.assemble = o.call("server.assemble", func() {
			sets := make(map[algo]*scoreSet, len(vecs))
			for a, v := range vecs {
				sets[a] = newScoreSet(v, setStats(snapshotSet(cur, a)))
			}
			next, err = resnapshot(cur, sets)
		})
		if err != nil {
			o.finish()
			p.failed++
			continue
		}
		rec.publish = o.call("server.publish_call", func() { rec.version = publish(st, next) })
		rec.end = time.Now()
		rec.served += served.Load()
		o.finish()
		rec.total = rec.end.Sub(rec.start)
		p.records = append(p.records, rec)
	}
}

func runServeUnderRefresh(r *run) error {
	cfg := r.cfg
	phaseA := time.Duration(servePhaseAShare * float64(cfg.budget()))
	phaseB := cfg.budget() - phaseA
	var (
		st       *store
		client   *serveClient
		plan     schedule
		genTimes samples
	)
	err := r.setup(func() error {
		t0 := time.Now()
		ds, err := generateCorpus(cfg.Scale, cfg.Seed)
		if err != nil {
			return err
		}
		genTimes.add(time.Since(t0))
		r.corpus(numPages(ds.Pages), numLinks(ds.Pages), numSources(ds.Pages))
		sg, err := buildSourceGraph(ds.Pages, cfg.Workers)
		if err != nil {
			return err
		}
		snap, err := buildSnapshotFromSourceGraph(ds.Pages, sg, ds, cfg.Workers)
		if err != nil {
			return err
		}
		st = newStore()
		publish(st, snap)
		client = &serveClient{is: newIssuer(serveHandler(st), numSources(ds.Pages), cfg.Seed)}
		for i := 0; i < serveWarmup; i++ {
			client.is.issue(client.is.pick())
		}
		plan = poissonSchedule(cfg.Seed, serveOpenRate, phaseB)
		return nil
	})
	if err != nil {
		return err
	}

	pub := &publisherLoop{cal: newCalibrator(0, cfg.KernelInts)}
	if r.tr != nil {
		pub.tr = &tracer{t0: r.tr.t0}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// The client owns one OS thread for both phases, so the scheduler
	// cannot park the spin loop behind the publisher.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	r.startTimed()
	wg.Add(1)
	go func() {
		defer wg.Done()
		pub.run(st, &client.requests, cfg.Seed, servePublishEvery, stop)
	}()

	// Phase A: closed loop; each slice gives one capacity sample and, for
	// the bounded metric, the time per thousand requests over the kernel
	// run right before the slice.
	var capacity []float64
	var perThousand relSamples
	for s := 0; s < serveSlices; s++ {
		kernel := r.cal.single()
		t0 := time.Now()
		end := t0.Add(phaseA / serveSlices)
		n := 0
		for time.Now().Before(end) {
			client.do(client.is.pick())
			n++
		}
		d := time.Since(t0)
		capacity = append(capacity, ratePerSecond(n, d))
		perThousand.add(time.Duration(float64(d)*1000/float64(n)), kernel)
	}
	closedRequests := client.requests.Load()

	// Phase B: open loop.
	start := time.Now()
	res := runOpenLoop(plan, func() time.Duration { return time.Since(start) }, func(i int) {
		if r.tr != nil && i%serveSpanSample == 0 {
			o := r.tr.beginOp(i, "request")
			o.call("server.request", func() { client.do(plan.Kind[i]) })
			o.finish()
			return
		}
		client.do(plan.Kind[i])
	})
	openEnd := time.Now()
	close(stop)
	wg.Wait()
	peak, used := r.endTimed()
	if r.tr != nil {
		r.tr.merge(pub.tr)
	}

	r.rep.Attempted = int(client.requests.Load()) + len(pub.records) + pub.failed
	r.rep.Failed += client.failed + pub.failed

	// Per publish: in the closed-loop phase, what a thousand requests cost
	// the reader while the publish was in flight; in the open-loop phase,
	// how long until the reader first saw the new version.
	var total, during, visible relSamples
	var assemble, publishCall samples
	for _, rec := range pub.records {
		total.add(rec.total, rec.kernel)
		assemble.add(rec.assemble)
		publishCall.add(rec.publish)
		switch {
		case rec.end.Before(start) && rec.served > 0:
			during.add(time.Duration(float64(rec.total)*1000/float64(rec.served)), rec.kernel)
		case rec.start.After(start) && rec.end.Before(openEnd):
			if at, ok := client.firstSeen(rec.version); ok {
				visible.add(at.Sub(rec.start), rec.kernel)
			}
		}
	}
	if len(during.rel) == 0 || len(visible.rel) == 0 {
		return fmt.Errorf("run too short: %d publishes, %d closed-loop, %d open-loop", len(pub.records), len(during.rel), len(visible.rel))
	}

	lat := samples(res.Latency).in(time.Microsecond)
	r.endToEnd(peak, [4]metric{
		perThousand.best(), during.best(), total.metric(), visible.metric(),
	})
	r.named("serve_capacity_rps", median(capacity), "req/s", len(capacity))
	r.named("serve_capacity_best_rps", slices.Max(capacity), "req/s", len(capacity))
	r.named("serve_during_publish_rps", 1e3/median(during.raw.in(time.Second)), "req/s", len(during.raw))
	r.named("serve_during_publish_best_rps", 1e3/slices.Min(during.raw).Seconds(), "req/s", len(during.raw))
	r.named("publish_under_load_ms", median(total.raw.in(time.Millisecond)), "ms", len(total.raw))
	r.named("publish_to_visible_ms", median(visible.raw.in(time.Millisecond)), "ms", len(visible.raw))
	r.named("serve_p99_us", quantile(lat, 0.99), "us", len(lat))

	// ---- verification pass (untimed) ----
	r.check("versions_never_regress", client.regress == 0, "%d regressions in %d requests", client.regress, client.requests.Load())
	bad := 0
	for _, b := range client.bodies {
		var doc struct {
			Version uint64 `json:"version"`
		}
		if json.Unmarshal(b.body, &doc) != nil || doc.Version == 0 || (b.etagVersion != 0 && doc.Version != b.etagVersion) {
			bad++
		}
	}
	r.check("sampled_bodies", bad == 0 && len(client.bodies) > 0, "%d of %d sampled bodies failed to parse or disagreed with their ETag", bad, len(client.bodies))

	r.verified()
	if cfg.Traced {
		r.layer("gen.generate_s", median(genTimes.in(time.Second)), "s", len(genTimes))
		r.layer("server.req_p50_us", median(lat), "us", len(lat))
		r.layer("server.req_p999_us", quantile(lat, 0.999), "us", len(lat))
		byKind := make([][]float64, numKinds)
		for i, l := range res.Latency {
			k := plan.Kind[i]
			byKind[k] = append(byKind[k], float64(l-res.Late[i])/float64(time.Microsecond))
		}
		for k, xs := range byKind {
			r.layer("server."+kindNames[k]+"_p50_us", median(xs), "us", len(xs))
		}
		r.layer("server.max_stall_ms", slices.Max(lat)/1e3, "ms", len(lat))
		r.layer("server.assemble_under_load_ms", median(assemble.in(time.Millisecond)), "ms", len(assemble))
		r.layer("server.publish_call_under_load_ms", median(publishCall.in(time.Millisecond)), "ms", len(publishCall))
		r.layer("server.publishes", float64(len(pub.records)), "count", 1)
		r.layer("loadgen.late_p99_us", quantile(samples(res.Late).in(time.Microsecond), 0.99), "us", len(res.Late))
		r.layer("loadgen.closed_loop_requests", float64(closedRequests), "count", 1)
		r.layer("server.allocs_per_req", allocsPerRequest(client.is), "count", serveWarmup)
	}
	r.finish(used)
	return nil
}

// allocsPerRequest is a quiet probe: heap allocations per request with
// no publisher running.
func allocsPerRequest(is *issuer) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < serveWarmup; i++ {
		is.issue(is.pick())
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / serveWarmup
}
