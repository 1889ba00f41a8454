package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"sourcerank/internal/durable"
	"sourcerank/internal/server"
)

// maxFrameBytes bounds how much of a sync response a puller will buffer
// before verification; a builder response past it is treated as torn.
const maxFrameBytes = 1 << 30

// maxPresizeBytes bounds what a sync response's Content-Length may
// reserve before its body arrives, so a lying header cannot allocate up
// to maxFrameBytes up front; a longer frame grows past it as it is read.
const maxPresizeBytes = 64 << 20

// Puller is the replica-side sync loop: it pulls snapshot frames from a
// builder's /v1/replica/snapshot endpoint, verifies the durable CRC
// trailer on the raw bytes before decoding, applies each frame alone or
// over the current snapshot (proving every resulting vector
// byte-identical to the builder's via the frame's section CRCs), and
// hot-swaps the result into Store with the builder's version number so
// fleet skew is observable. A failed or torn transfer never disturbs
// the serving snapshot.
//
// Puller implements server.ReplicaStatus, so wiring it into
// server.Config.Replica makes /healthz judge staleness by sync contact
// age and /metrics export the srserve_replica_* series.
type Puller struct {
	// Builder is the base URL of the builder node (e.g.
	// "http://builder:8080"); the sync path is appended.
	Builder string
	// Store receives verified snapshots.
	Store *server.Store
	// Interval is the steady-state time between sync attempts.
	Interval time.Duration
	// Timeout bounds each pull attempt; 0 defaults to 10s.
	Timeout time.Duration
	// MaxBackoff caps the delay after consecutive sync failures; 0
	// defaults to 16×Interval (same discipline as server.Refresher).
	MaxBackoff time.Duration
	// StalenessBudget is how long the replica may go without builder
	// contact before Healthz degrades. 0 disables the check here (the
	// server's own budget still applies to publish age).
	StalenessBudget time.Duration
	// Client issues the pulls; nil means a default client. Tests inject
	// fault-injecting transports here.
	Client *http.Client
	// OnSync, if set, observes each applied snapshot (not 304s).
	OnSync func(version uint64, encoding string, bytes int)
	// OnError, if set, observes each failed attempt.
	OnError func(error)

	// rnd supplies backoff jitter; tests pin it. Nil means math/rand.
	rnd func() float64

	lastSyncNS   atomic.Int64 // wall clock of last successful contact (200 or 304)
	startNS      atomic.Int64 // wall clock of Run start (or first SyncNow)
	version      atomic.Uint64
	failures     atomic.Uint64 // consecutive
	syncFailures atomic.Uint64 // total
	bytesTotal   atomic.Uint64
	fullSyncs    atomic.Uint64
	deltaSyncs   atomic.Uint64
	notModified  atomic.Uint64
	tornRejected atomic.Uint64
	regressions  atomic.Uint64
	setsShared   atomic.Uint64
	// meta remembers the serving snapshot's metaCRC across delta syncs.
	meta metaMemo
	// forceFull requests an unconditioned full pull on the next attempt;
	// set after any verification or delta-application failure so a
	// replica whose local state diverged re-bases instead of looping.
	forceFull atomic.Bool
	// retryAfterHint is the builder's parsed Retry-After (seconds) from
	// the last 503, used as a floor under the backoff delay.
	retryAfterHint atomic.Int64
}

func (p *Puller) timeout() time.Duration {
	if p.Timeout <= 0 {
		return 10 * time.Second
	}
	return p.Timeout
}

func (p *Puller) client() *http.Client {
	if p.Client != nil {
		return p.Client
	}
	return http.DefaultClient
}

// Version is the builder version this replica currently serves (0
// before the first successful sync).
func (p *Puller) Version() uint64 { return p.version.Load() }

// ConsecutiveFailures reports failed attempts since the last successful
// contact.
func (p *Puller) ConsecutiveFailures() uint64 { return p.failures.Load() }

// TornRejected counts transfers rejected by CRC/structure verification
// before reaching the store.
func (p *Puller) TornRejected() uint64 { return p.tornRejected.Load() }

// FullSyncs, DeltaSyncs, and NotModified count sync outcomes.
func (p *Puller) FullSyncs() uint64   { return p.fullSyncs.Load() }
func (p *Puller) DeltaSyncs() uint64  { return p.deltaSyncs.Load() }
func (p *Puller) NotModified() uint64 { return p.notModified.Load() }

// SetsShared counts, over every applied delta sync, the algorithms whose
// patch was empty: their score vector was verified in place and handed
// to the store as is, so the publish carried their index and rendered
// responses over instead of rebuilding them.
func (p *Puller) SetsShared() uint64 { return p.setsShared.Load() }

// SyncAge is the time since the last successful builder contact; before
// any contact it is the time since the loop started, so a replica that
// never reaches its builder ages into degradation rather than looking
// forever fresh.
func (p *Puller) SyncAge() time.Duration {
	if ns := p.lastSyncNS.Load(); ns != 0 {
		return time.Since(time.Unix(0, ns))
	}
	if ns := p.startNS.Load(); ns != 0 {
		return time.Since(time.Unix(0, ns))
	}
	return 0
}

// Healthz returns the replica block for /healthz. The serving layer
// turns the response 503 when SyncAge exceeds the server's staleness
// budget; this block tells operators why.
func (p *Puller) Healthz() map[string]any {
	h := map[string]any{
		"builder":              p.Builder,
		"version":              p.version.Load(),
		"lag_seconds":          p.SyncAge().Seconds(),
		"consecutive_failures": p.failures.Load(),
		"sync_failures_total":  p.syncFailures.Load(),
		"torn_rejected_total":  p.tornRejected.Load(),
		"bytes_transferred":    p.bytesTotal.Load(),
		"full_syncs":           p.fullSyncs.Load(),
		"delta_syncs":          p.deltaSyncs.Load(),
		"not_modified":         p.notModified.Load(),
	}
	if p.StalenessBudget > 0 {
		h["staleness_budget_seconds"] = p.StalenessBudget.Seconds()
		h["within_budget"] = p.SyncAge() <= p.StalenessBudget
	}
	return h
}

// WriteMetricsText appends the srserve_replica_* series to the /metrics
// exposition.
func (p *Puller) WriteMetricsText(w io.Writer) {
	fmt.Fprintf(w, "# HELP srserve_replica_lag_seconds Time since last successful builder contact.\n")
	fmt.Fprintf(w, "# TYPE srserve_replica_lag_seconds gauge\n")
	fmt.Fprintf(w, "srserve_replica_lag_seconds %g\n", p.SyncAge().Seconds())
	fmt.Fprintf(w, "# HELP srserve_replica_version Builder snapshot version currently served.\n")
	fmt.Fprintf(w, "# TYPE srserve_replica_version gauge\n")
	fmt.Fprintf(w, "srserve_replica_version %d\n", p.version.Load())
	fmt.Fprintf(w, "# HELP srserve_replica_sync_failures Total failed sync attempts.\n")
	fmt.Fprintf(w, "# TYPE srserve_replica_sync_failures counter\n")
	fmt.Fprintf(w, "srserve_replica_sync_failures %d\n", p.syncFailures.Load())
	fmt.Fprintf(w, "# HELP srserve_replica_torn_rejected Transfers rejected by verification before publish.\n")
	fmt.Fprintf(w, "# TYPE srserve_replica_torn_rejected counter\n")
	fmt.Fprintf(w, "srserve_replica_torn_rejected %d\n", p.tornRejected.Load())
	fmt.Fprintf(w, "# HELP srserve_replica_bytes_transferred Total snapshot bytes received.\n")
	fmt.Fprintf(w, "# TYPE srserve_replica_bytes_transferred counter\n")
	fmt.Fprintf(w, "srserve_replica_bytes_transferred %d\n", p.bytesTotal.Load())
	fmt.Fprintf(w, "# HELP srserve_replica_syncs Applied syncs by transfer encoding.\n")
	fmt.Fprintf(w, "# TYPE srserve_replica_syncs counter\n")
	fmt.Fprintf(w, "srserve_replica_syncs{encoding=\"full\"} %d\n", p.fullSyncs.Load())
	fmt.Fprintf(w, "srserve_replica_syncs{encoding=\"delta\"} %d\n", p.deltaSyncs.Load())
	fmt.Fprintf(w, "srserve_replica_syncs{encoding=\"not_modified\"} %d\n", p.notModified.Load())
	fmt.Fprintf(w, "# HELP srserve_replica_sets_shared Score sets a delta sync left unpatched and carried over whole.\n")
	fmt.Fprintf(w, "# TYPE srserve_replica_sets_shared counter\n")
	fmt.Fprintf(w, "srserve_replica_sets_shared %d\n", p.setsShared.Load())
}

// Run pulls until ctx is canceled: an immediate first sync, then
// Interval-paced attempts stretching into jittered exponential backoff
// after consecutive failures (a builder Retry-After hint floors the
// delay). Mirrors server.Refresher's loop discipline.
func (p *Puller) Run(ctx context.Context) {
	if p.Interval <= 0 {
		return
	}
	p.startNS.CompareAndSwap(0, time.Now().UnixNano())
	_ = p.SyncNow(ctx)
	t := time.NewTimer(p.nextDelay())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_ = p.SyncNow(ctx)
			t.Reset(p.nextDelay())
		}
	}
}

// nextDelay is Interval while syncs succeed; after f consecutive
// failures it is Interval·2^f capped at MaxBackoff, jittered ±20%, and
// floored by the builder's last Retry-After hint.
func (p *Puller) nextDelay() time.Duration {
	d := server.Jitter(server.Backoff(p.Interval, p.MaxBackoff, p.failures.Load()), p.rnd)
	if hint := time.Duration(p.retryAfterHint.Swap(0)) * time.Second; hint > d {
		d = hint
	}
	return d
}

func (p *Puller) fail(err error) error {
	p.failures.Add(1)
	p.syncFailures.Add(1)
	if p.OnError != nil {
		p.OnError(err)
	}
	return err
}

// SyncNow performs one pull attempt synchronously. On success (a
// publish or a 304) the consecutive-failure counter resets and the sync
// clock is touched; on any failure — transport, HTTP, verification,
// decode, application — the serving snapshot is untouched and the error
// is returned.
func (p *Puller) SyncNow(ctx context.Context) error {
	p.startNS.CompareAndSwap(0, time.Now().UnixNano())
	ctx, cancel := context.WithTimeout(ctx, p.timeout())
	defer cancel()

	url := p.Builder + "/v1/replica/snapshot"
	force := p.forceFull.Load()
	if force {
		url += "?full=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return p.fail(fmt.Errorf("replica: build sync request: %w", err))
	}
	cur := p.Store.Current()
	if cur != nil && !force {
		req.Header.Set("If-None-Match", fmt.Sprintf("%q", "v"+strconv.FormatUint(cur.Version(), 10)))
	}
	resp, err := p.client().Do(req)
	if err != nil {
		return p.fail(fmt.Errorf("replica: pull %s: %w", p.Builder, err))
	}
	defer resp.Body.Close()

	switch resp.StatusCode {
	case http.StatusNotModified:
		p.touch()
		p.notModified.Add(1)
		return nil
	case http.StatusOK:
		// fall through to transfer handling
	default:
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.ParseInt(ra, 10, 64); err == nil && secs > 0 {
				p.retryAfterHint.Store(secs)
			}
		}
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return p.fail(fmt.Errorf("replica: builder returned %s", resp.Status))
	}

	// Read to EOF, not to Content-Length: a body cut short under a stale
	// header must reach durable.Verify and count as torn. Room for the
	// announced length plus one read lets the frame arrive without regrowth.
	var body bytes.Buffer
	if n := resp.ContentLength; n > 0 && n <= maxPresizeBytes {
		body.Grow(int(n) + bytes.MinRead)
	}
	if _, err := body.ReadFrom(io.LimitReader(resp.Body, maxFrameBytes+1)); err != nil {
		return p.fail(fmt.Errorf("replica: read sync body: %w", err))
	}
	framed := body.Bytes()
	if len(framed) > maxFrameBytes {
		p.tornRejected.Add(1)
		return p.fail(fmt.Errorf("replica: sync body exceeds %d bytes", maxFrameBytes))
	}
	// Verify the CRC frame on the raw received bytes before any decoding
	// touches them: truncation, bit flips, and torn writes all die here.
	payload, err := durable.Verify(framed)
	if err != nil {
		p.tornRejected.Add(1)
		p.forceFull.Store(true)
		return p.fail(fmt.Errorf("replica: transfer verification: %w", err))
	}
	f, err := decode(payload)
	var snap *server.Snapshot
	var shared int
	if err == nil {
		var baseMeta uint32
		if f.from != 0 && cur != nil {
			baseMeta = p.meta.crc(cur)
		}
		snap, shared, err = f.apply(cur, baseMeta)
	}
	if err != nil {
		if errors.Is(err, ErrFrame) {
			p.tornRejected.Add(1)
		}
		p.forceFull.Store(true)
		return p.fail(err)
	}
	version := f.version
	if err := p.Store.PublishExternal(snap, version); err != nil {
		// A version regression (builder restarted behind us) is not
		// recoverable by re-pulling the same version; count it and wait
		// for the builder to pass us again.
		p.regressions.Add(1)
		return p.fail(fmt.Errorf("replica: publish: %w", err))
	}
	p.forceFull.Store(false)
	p.touch()
	p.version.Store(version)
	p.bytesTotal.Add(uint64(len(framed)))
	encoding := "full"
	if f.from != 0 {
		encoding = "delta"
		p.deltaSyncs.Add(1)
		p.setsShared.Add(uint64(shared))
	} else {
		p.fullSyncs.Add(1)
	}
	if p.OnSync != nil {
		p.OnSync(version, encoding, len(framed))
	}
	return nil
}

func (p *Puller) touch() {
	p.failures.Store(0)
	p.lastSyncNS.Store(time.Now().UnixNano())
}
