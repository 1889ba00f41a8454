package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Store holds the currently-served snapshot behind an atomic pointer.
// Readers call Current and work against one immutable snapshot for the
// whole request; publishers swap in a replacement without blocking any
// reader. There is no lock anywhere on the read path; publishMu only
// serializes publishers against each other.
type Store struct {
	cur         atomic.Pointer[Snapshot]
	publishMu   sync.Mutex
	versions    atomic.Uint64
	publishes   atomic.Uint64
	publishedAt atomic.Int64 // UnixNano of the last Publish; 0 before
	// setOutcomes counts score sets by what their publish did with them
	// (indexed by publishOutcome). Publishers are serialized, so plain
	// atomics suffice; /metrics reads them without the lock.
	setOutcomes [numPublishOutcomes]atomic.Uint64
	lastPublish atomic.Int64 // wall time of the last finalize and swap, ns
}

// NewStore creates a store serving initial (which may be nil; handlers
// answer 503 until the first publish).
func NewStore(initial *Snapshot) *Store {
	s := &Store{}
	if initial != nil {
		s.Publish(initial)
	}
	return s
}

// Current returns the snapshot being served, or nil before the first
// publish.
func (s *Store) Current() *Snapshot { return s.cur.Load() }

// Publish assigns snap the next version number, pre-encodes its hot-path
// response bodies (see Snapshot.finalize), and makes it the served
// snapshot. The caller must hand over ownership: snap must not be
// mutated after Publish. Returns the assigned version (starting at 1).
//
// Publishers are serialized: finalize does real work (it formats every
// changed vector's scores and renders the top-K payloads once per
// publish), and holding the lock across version assignment and the
// pointer swap keeps versions monotonic from every reader's point of
// view. Readers never touch the lock.
func (s *Store) Publish(snap *Snapshot) uint64 {
	s.publishMu.Lock()
	defer s.publishMu.Unlock()
	prev := s.cur.Load()
	snap.version = s.versions.Add(1)
	if prev != nil {
		snap.parent = prev.version
	}
	s.install(snap, prev)
	return snap.version
}

// install finalizes snap against the outgoing snapshot — which carries
// over whatever snap shares with it (see Snapshot.finalize) — and swaps
// it in. Called under publishMu with snap's version and parent set.
func (s *Store) install(snap, prev *Snapshot) {
	start := time.Now()
	for outcome, sets := range snap.finalize(prev, s.publishes.Add(1)) {
		s.setOutcomes[outcome].Add(uint64(sets))
	}
	s.cur.Store(snap)
	now := time.Now()
	s.publishedAt.Store(now.UnixNano())
	s.lastPublish.Store(int64(now.Sub(start)))
}

// PublishExternal is Publish for snapshots whose version was assigned
// elsewhere — a replica adopting its builder's version numbers so fleet
// version skew is directly observable. The version must move forward;
// a regression (e.g. a builder that restarted without recovering its
// publish counter) is rejected so readers never observe versions going
// backwards, and the caller surfaces it as a sync failure instead.
// Local Publish calls interleaved with external ones stay monotonic:
// the internal counter is advanced to at least the adopted version.
func (s *Store) PublishExternal(snap *Snapshot, version uint64) error {
	s.publishMu.Lock()
	defer s.publishMu.Unlock()
	if version == 0 {
		return fmt.Errorf("server: external publish needs a nonzero version")
	}
	prev := s.cur.Load()
	if prev != nil && version <= prev.version {
		return fmt.Errorf("server: external publish version %d not past served version %d", version, prev.version)
	}
	for {
		cur := s.versions.Load()
		if cur >= version || s.versions.CompareAndSwap(cur, version) {
			break
		}
	}
	snap.version = version
	if prev != nil {
		snap.parent = prev.version
	}
	s.install(snap, prev)
	return nil
}

// Publishes counts successful Publish calls since creation.
func (s *Store) Publishes() uint64 { return s.publishes.Load() }

// PublishSets counts, over every publish, the score sets whose index and
// rendered responses were carried over from the outgoing snapshot, and
// those the publish indexed and rendered itself.
func (s *Store) PublishSets() (reused, rendered uint64) {
	return s.setOutcomes[setReused].Load(), s.setOutcomes[setRendered].Load()
}

// PublishedAt reports when the serving snapshot was published (not when
// it was built — a slow build still counts as fresh at publish time).
// Zero before the first publish.
func (s *Store) PublishedAt() time.Time {
	ns := s.publishedAt.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Staleness reports how long the serving snapshot has been published.
// Zero before the first publish (startup is "empty", not "stale").
func (s *Store) Staleness() time.Duration {
	at := s.PublishedAt()
	if at.IsZero() {
		return 0
	}
	return time.Since(at)
}
