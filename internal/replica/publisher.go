package replica

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"sourcerank/internal/durable"
	"sourcerank/internal/server"
)

// Publisher is the builder-side snapshot distribution endpoint, mounted
// at GET /v1/replica/snapshot via server.Config.SyncHandler. Replicas
// advertise the version they hold with If-None-Match (the serving
// layer's `"v<N>"` ETags); the publisher answers 304 when they are
// current, a frame over that version when it is still in its history
// ring and carries the newest snapshot (a delta), and a frame with no
// base otherwise (a full transfer). Every body is wrapped by
// durable.Frame, so receipt verification catches truncation and
// corruption end to end.
type Publisher struct {
	store   *server.Store
	history int
	// rnd supplies Retry-After jitter; tests pin it. Nil means math/rand.
	rnd func() float64

	mu   sync.Mutex
	ring []entry // most recent last; len <= history
	meta metaMemo
	// frames caches the framed encodings of the newest snapshot, keyed by
	// the base version each was encoded over (0 for none), so a fleet of
	// replicas at one version shares one encoding.
	frames map[uint64][]byte

	fulls       atomic.Uint64
	deltas      atomic.Uint64
	notModified atomic.Uint64
	unavailable atomic.Uint64
}

// NewPublisher serves snapshots from store, keeping the last history
// published versions available as delta bases (minimum 1).
func NewPublisher(store *server.Store, history int) *Publisher {
	if history < 1 {
		history = 1
	}
	return &Publisher{store: store, history: history}
}

// WriteMetricsText appends the builder-side srserve_replica_served_total
// series to the /metrics exposition: what this publisher has answered
// replica syncs with, by kind.
func (p *Publisher) WriteMetricsText(w io.Writer) {
	fmt.Fprintf(w, "# HELP srserve_replica_served_total Replica sync responses served, by kind.\n")
	fmt.Fprintf(w, "# TYPE srserve_replica_served_total counter\n")
	fmt.Fprintf(w, "srserve_replica_served_total{kind=\"full\"} %d\n", p.fulls.Load())
	fmt.Fprintf(w, "srserve_replica_served_total{kind=\"delta\"} %d\n", p.deltas.Load())
	fmt.Fprintf(w, "srserve_replica_served_total{kind=\"not_modified\"} %d\n", p.notModified.Load())
}

// observe folds the store's current snapshot into the history ring and
// returns it. Called under p.mu.
func (p *Publisher) observe() *server.Snapshot {
	cur := p.store.Current()
	if cur == nil {
		return nil
	}
	n := len(p.ring)
	if n > 0 && p.ring[n-1].snap.Version() >= cur.Version() {
		return p.ring[n-1].snap
	}
	p.ring = append(p.ring, entry{snap: cur, meta: p.meta.crc(cur)})
	if len(p.ring) > p.history {
		p.ring = p.ring[len(p.ring)-p.history:]
	}
	p.frames = make(map[uint64][]byte)
	return cur
}

// haveVersion parses the version a replica advertises via
// If-None-Match. The serving layer's ETags are strong `"v<N>"` tags;
// anything else (absent header, `*`, weak tags) reads as 0 — never
// synced — which degrades to a full transfer, not an error.
func haveVersion(r *http.Request) uint64 {
	inm := r.Header.Get("If-None-Match")
	for _, part := range strings.Split(inm, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if len(part) < 4 || part[0] != '"' || part[len(part)-1] != '"' {
			continue
		}
		tag := part[1 : len(part)-1]
		if tag == "" || tag[0] != 'v' {
			continue
		}
		if v, err := strconv.ParseUint(tag[1:], 10, 64); err == nil {
			return v
		}
	}
	return 0
}

func (p *Publisher) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	cur := p.observe()
	if cur == nil {
		p.mu.Unlock()
		p.unavailable.Add(1)
		w.Header().Set("Retry-After", retryAfter(p.rnd))
		http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
		return
	}
	have := haveVersion(r)
	if have == cur.Version() && r.URL.Query().Get("full") == "" {
		p.mu.Unlock()
		p.notModified.Add(1)
		w.Header().Set("Etag", fmt.Sprintf("%q", "v"+strconv.FormatUint(cur.Version(), 10)))
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body, from := p.respond(have, r.URL.Query().Get("full") != "")
	p.mu.Unlock()
	encoding := "full"
	if from != 0 {
		encoding = "delta"
		p.deltas.Add(1)
	} else {
		p.fulls.Add(1)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Etag", fmt.Sprintf("%q", "v"+strconv.FormatUint(cur.Version(), 10)))
	w.Header().Set("X-Replica-Encoding", encoding)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// respond picks and caches the framed body for a replica holding
// `have`: over that version when the ring still holds it and it carries
// the newest snapshot, else over no base; from is the base version (0
// for none). Called under p.mu after observe; the returned slice is
// immutable.
func (p *Publisher) respond(have uint64, forceFull bool) (body []byte, from uint64) {
	cur := &p.ring[len(p.ring)-1]
	var base *entry
	for i := range p.ring[:len(p.ring)-1] {
		if e := &p.ring[i]; !forceFull && e.snap.Version() == have && e.carries(cur) {
			base, from = e, have
		}
	}
	if p.frames[from] == nil {
		p.frames[from] = durable.Frame(encode(base, cur))
	}
	return p.frames[from], from
}

// retryAfter returns a small jittered Retry-After value (seconds) so a
// fleet hitting an empty builder does not re-poll in lockstep.
func retryAfter(rnd func() float64) string {
	f := rand.Float64
	if rnd != nil {
		f = rnd
	}
	return strconv.Itoa(1 + int(f()*3)%3)
}
