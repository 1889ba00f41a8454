package server

import (
	"context"
	"math/rand"
	"sync/atomic"
	"time"
)

// BuildFunc produces the next snapshot during a refresh. It runs on the
// refresher's goroutine; readers keep serving the old snapshot while it
// computes. Implementations typically re-read spam labels and call
// Builder.Build, whose retained state makes the build cost what changed.
type BuildFunc func(ctx context.Context) (*Snapshot, error)

// Refresher periodically rebuilds and publishes snapshots. Failed
// builds never unpublish the serving snapshot; instead the refresher
// backs off exponentially (with jitter, so a fleet of replicas does not
// rebuild in lockstep) until a build succeeds again.
type Refresher struct {
	Store    *Store
	Build    BuildFunc
	Interval time.Duration
	// MaxBackoff caps the delay between retries after consecutive build
	// failures; 0 defaults to 16×Interval.
	MaxBackoff time.Duration
	// OnPublish, if set, observes each successful publish along with how
	// long the build took.
	OnPublish func(version uint64, snap *Snapshot, took time.Duration)
	// OnError, if set, observes build failures; the old snapshot stays
	// published and the loop continues.
	OnError func(error)

	failures    atomic.Uint64
	lastBuildNS atomic.Int64

	// rnd supplies the jitter fraction in [0,1); tests pin it for
	// deterministic delays. Nil means math/rand.
	rnd func() float64
}

// ConsecutiveFailures reports how many builds in a row have failed
// since the last successful publish.
func (r *Refresher) ConsecutiveFailures() uint64 { return r.failures.Load() }

// LastBuildDuration reports how long the most recent successful build
// took, or 0 before the first publish.
func (r *Refresher) LastBuildDuration() time.Duration {
	return time.Duration(r.lastBuildNS.Load())
}

// Run rebuilds until ctx is canceled. The next cycle is scheduled only
// after the previous build finishes — a build that outlives Interval
// delays the next one rather than triggering an immediate back-to-back
// rebuild — and failures stretch the delay via nextDelay.
func (r *Refresher) Run(ctx context.Context) {
	if r.Interval <= 0 || r.Build == nil {
		return
	}
	t := time.NewTimer(r.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_ = r.RefreshNow(ctx)
			t.Reset(r.nextDelay())
		}
	}
}

// RefreshNow runs one build+publish cycle synchronously, returning the
// build error if any.
func (r *Refresher) RefreshNow(ctx context.Context) error {
	start := time.Now()
	snap, err := r.Build(ctx)
	if err != nil {
		r.failures.Add(1)
		if r.OnError != nil {
			r.OnError(err)
		}
		return err
	}
	took := time.Since(start)
	r.failures.Store(0)
	r.lastBuildNS.Store(int64(took))
	v := r.Store.Publish(snap)
	if r.OnPublish != nil {
		r.OnPublish(v, snap, took)
	}
	return nil
}

// nextDelay is Interval while builds succeed; after f consecutive
// failures it is Interval·2^f capped at MaxBackoff, with ±20% jitter.
func (r *Refresher) nextDelay() time.Duration {
	return Jitter(Backoff(r.Interval, r.MaxBackoff, r.failures.Load()), r.rnd)
}

// Backoff is the un-jittered delay after failures consecutive failures:
// interval while there are none, else interval·2^failures capped at
// maxBackoff (16·interval when maxBackoff <= 0). The refresher and the
// replica sync loop share it.
func Backoff(interval, maxBackoff time.Duration, failures uint64) time.Duration {
	if failures == 0 {
		return interval
	}
	if maxBackoff <= 0 {
		maxBackoff = 16 * interval
	}
	d := interval
	for i := uint64(0); i < failures; i++ {
		d *= 2
		if d >= maxBackoff {
			return maxBackoff
		}
	}
	return d
}

// Jitter spreads d uniformly over [0.8d, 1.2d]; a nil rnd uses
// math/rand. Exported for the replica sync loop, which applies the same
// fleet de-synchronization discipline as the refresher so a builder
// restart is not followed by every replica re-syncing in lockstep.
func Jitter(d time.Duration, rnd func() float64) time.Duration {
	if d <= 0 {
		return d
	}
	if rnd == nil {
		rnd = rand.Float64
	}
	frac := 0.8 + 0.4*rnd()
	return time.Duration(float64(d) * frac)
}
