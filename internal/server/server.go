package server

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"sourcerank/internal/pagegraph"
)

// ReplicaStatus is the server's view of a replica sync loop
// (internal/replica.Puller implements it; an interface here keeps the
// dependency one-way). When Config.Replica is set, the staleness budget
// is judged against SyncAge — how long since the replica last confirmed
// it holds the builder's current snapshot — instead of the local
// publish age, /healthz carries the Healthz block, and /metrics appends
// the srserve_replica_* series.
type ReplicaStatus interface {
	// SyncAge is the time since the last successful sync contact with
	// the builder (a 200 publish or a 304 confirming freshness).
	SyncAge() time.Duration
	// Healthz returns the replica block merged into the /healthz payload.
	Healthz() map[string]any
	// WriteMetricsText appends the replica series to the /metrics
	// exposition.
	WriteMetricsText(w io.Writer)
}

// Config tunes the HTTP server. The zero value is serviceable.
type Config struct {
	// Addr is the listen address; "" defaults to ":8080".
	Addr string
	// RequestTimeout bounds each request's context; 0 defaults to 5s.
	RequestTimeout time.Duration
	// StalenessBudget is how old the serving snapshot may grow before
	// /healthz reports degraded (503). Data endpoints keep serving the
	// stale snapshot either way, flagged with an X-Snapshot-Stale
	// header. 0 disables staleness checks.
	StalenessBudget time.Duration
	// MaxInFlight caps concurrent requests per data endpoint; excess
	// requests are shed with 503 + Retry-After. Health and metrics
	// endpoints are never capped. 0 disables the cap.
	MaxInFlight int
	// Refresher, if set, adds the refresher's health gauges (consecutive
	// build failures, last build time) to /metrics.
	Refresher *Refresher
	// CorpusLoad, if set, adds what reading the corpus file at boot cost
	// (srserve_corpus_load_seconds, srserve_corpus_bytes) to /metrics.
	CorpusLoad *pagegraph.LoadStats
	// Replica, if set, marks this server as a replica: staleness is
	// judged by sync contact age, /healthz reports the sync loop's
	// health, and /metrics carries the srserve_replica_* series.
	Replica ReplicaStatus
	// SyncHandler, if set, is mounted at GET /v1/replica/snapshot — the
	// builder-side snapshot distribution endpoint
	// (internal/replica.Publisher) that replicas pull verified frames
	// from. Nil leaves the route unregistered (404). A handler that also
	// has WriteMetricsText(io.Writer) gets its series appended to
	// /metrics, as Replica's are.
	SyncHandler http.Handler
}

// metricsTexter is what /metrics asks of Config.SyncHandler.
type metricsTexter interface {
	WriteMetricsText(w io.Writer)
}

func (c Config) addr() string {
	if c.Addr == "" {
		return ":8080"
	}
	return c.Addr
}

func (c Config) requestTimeout() time.Duration {
	if c.RequestTimeout <= 0 {
		return 5 * time.Second
	}
	return c.RequestTimeout
}

// Server serves ranking queries from a Store's current snapshot.
type Server struct {
	cfg      Config
	store    *Store
	metrics  *Metrics
	start    time.Time
	inflight map[string]*atomic.Int64
	// encodeAlways sends every request through the per-request encoder
	// instead of the snapshot's pre-encoded responses. Only tests set it:
	// the golden suites assert both paths give the same bytes, and the
	// Fallback benchmarks time the encoder against the cache.
	encodeAlways bool
}

// New assembles a server around store.
func New(store *Store, cfg Config) *Server {
	s := &Server{
		cfg:      cfg,
		store:    store,
		metrics:  NewMetrics(allEndpoints...),
		start:    time.Now(),
		inflight: make(map[string]*atomic.Int64, len(allEndpoints)),
	}
	for _, ep := range allEndpoints {
		s.inflight[ep] = new(atomic.Int64)
	}
	return s
}

// Store exposes the underlying snapshot store (for refreshers).
func (s *Server) Store() *Store { return s.store }

// Metrics exposes the registry (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Handler returns the fully-wired HTTP handler.
func (s *Server) Handler() http.Handler { return s.routes() }

// Run listens on cfg.Addr and serves until ctx is canceled, then shuts
// down gracefully within 10 seconds. It returns nil on a clean shutdown.
func (s *Server) Run(ctx context.Context) error {
	l, err := net.Listen("tcp", s.cfg.addr())
	if err != nil {
		return err
	}
	return s.RunListener(ctx, l)
}

// RunListener is Run on an existing listener; tests use it with an
// ephemeral port. The listener is closed on return.
func (s *Server) RunListener(ctx context.Context, l net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		// The per-request context timeout (instrument) governs handler
		// work; WriteTimeout is a backstop above it.
		WriteTimeout: s.cfg.requestTimeout() + 5*time.Second,
		BaseContext:  func(net.Listener) context.Context { return ctx },
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		_ = srv.Close()
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
