package main

// surface.go is the only file of the benchmark that imports
// sourcerank/internal/...: every program symbol a workload calls is
// wrapped here exactly once, so this file is the list of entry points the
// benchmark depends on (README.md repeats it). Each wrapper calls the
// highest-level function that still isolates one layer; none adds logic.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"time"

	"sourcerank/internal/gen"
	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/rank"
	"sourcerank/internal/rankeval"
	"sourcerank/internal/replica"
	"sourcerank/internal/server"
	"sourcerank/internal/source"
	"sourcerank/internal/stream"
	"sourcerank/internal/sysmem"
	"sourcerank/internal/throttle"
	"sourcerank/internal/webgraph"
)

// Program types the workloads hold; aliases, so no other file needs the
// internal import to name them.
type (
	pageGraph    = pagegraph.Graph
	pageID       = pagegraph.PageID
	sourceGraph  = source.Graph
	dataset      = gen.Dataset
	streamCorpus = gen.Corpus
	snapshot     = server.Snapshot
	store        = server.Store
	scoreSet     = server.ScoreSet
	algo         = server.Algo
	pipeline     = stream.Pipeline
	delta        = stream.Delta
	refreshStats = stream.RefreshStats
	compressed   = webgraph.Compressed
	slabPaths    = webgraph.SlabPaths
	topology     = graph.Graph
	csr          = linalg.CSR
	vector       = linalg.Vector
	iterStats    = linalg.IterStats
)

const (
	algoSRSR      = server.AlgoSRSR
	algoPageRank  = server.AlgoPageRank
	algoTrustRank = server.AlgoTrustRank
)

// corpusPreset is the one corpus shape every workload shares.
const corpusPreset = gen.UK2002

// ---- gen ----

func generateCorpus(scale float64, seed uint64) (*dataset, error) {
	return gen.GeneratePreset(corpusPreset, scale, seed)
}

func generateStreamCorpus(scale float64, seed uint64, spillDir string, workers int) (*streamCorpus, error) {
	return gen.GenerateStreamPreset(corpusPreset, scale, seed, gen.StreamOptions{Dir: spillDir, Workers: workers})
}

func spillRuns(c *streamCorpus) int      { return len(c.Runs()) }
func removeCorpus(c *streamCorpus) error { return c.Remove() }

// ---- pagegraph ----

func writePageGraph(pg *pageGraph) ([]byte, error) {
	var buf bytes.Buffer
	if err := pg.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func readPageGraph(b []byte) (*pageGraph, error) { return pagegraph.ReadFrom(bytes.NewReader(b)) }

func numPages(pg *pageGraph) int                { return pg.NumPages() }
func numLinks(pg *pageGraph) int64              { return pg.NumLinks() }
func numSources(pg *pageGraph) int              { return pg.NumSources() }
func outLinks(pg *pageGraph, p pageID) []pageID { return pg.OutLinks(p) }
func sourceOf(pg *pageGraph, p pageID) int32    { return int32(pg.SourceOf(p)) }

// ---- source ----

func buildSourceGraph(pg *pageGraph, workers int) (*sourceGraph, error) {
	return source.Build(pg, source.Options{Workers: workers})
}

// ---- throttle (layer probes) ----

func spamProximity(sg *sourceGraph, spam []int32, workers int) (vector, iterStats, error) {
	return throttle.SpamProximity(sg.Structure(), spam, throttle.ProximityOptions{Workers: workers})
}

// throttleTopK mirrors server.BuildSnapshot's default κ assignment: the
// 2.7 % highest-proximity sources fully throttled.
func throttleTopK(proximity vector) []float64 {
	return throttle.TopK(proximity, int(0.027*float64(len(proximity))+0.5))
}

func throttleApply(sg *sourceGraph, kappa []float64) (*csr, error) {
	return throttle.Apply(sg.T, kappa)
}

// ---- server ----

func buildSnapshotFromSourceGraph(pg *pageGraph, sg *sourceGraph, ds *dataset, workers int) (*snapshot, error) {
	return server.BuildSnapshotFromSourceGraph(pg, sg, ds.SpamSources, server.BuildConfig{Name: ds.Name, Workers: workers})
}

func buildSnapshotCold(pg *pageGraph, ds *dataset, workers int) (*snapshot, error) {
	return server.BuildSnapshot(pg, ds.SpamSources, server.BuildConfig{Name: ds.Name, Workers: workers})
}

func newStore() *store                             { return server.NewStore(nil) }
func publish(st *store, snap *snapshot) uint64     { return st.Publish(snap) }
func currentSnapshot(st *store) *snapshot          { return st.Current() }
func snapshotAlgos(snap *snapshot) []algo          { return snap.Algos() }
func snapshotSet(snap *snapshot, a algo) *scoreSet { return snap.Set(a) }
func setScores(ss *scoreSet) vector                { return ss.ScoresView() }
func setStats(ss *scoreSet) iterStats              { return ss.Stats() }
func setSolveTime(ss *scoreSet) time.Duration      { return ss.SolveTime() }
func newScoreSet(v vector, st iterStats) *scoreSet { return server.NewScoreSet(v, st) }

// resnapshot assembles a snapshot that differs from base only in its
// score sets, the way a refresher republishes perturbed scores.
func resnapshot(base *snapshot, sets map[algo]*scoreSet) (*snapshot, error) {
	return server.NewSnapshot(base.Corpus(), base.LabelsView(), base.PageCountsView(), base.KappaTopK(), sets, time.Now())
}

// serveHandler is the HTTP handler srserve mounts over a store, with the
// zero Config (response cache on, no in-flight cap, no request timeout).
func serveHandler(st *store) http.Handler { return server.New(st, server.Config{}).Handler() }

func newRequest(url string) *http.Request { return httptest.NewRequest(http.MethodGet, url, nil) }

// ---- replica ----

// handlerTransport answers a replica's pulls by calling the builder's
// sync handler in process: real sockets measure the sandbox, not the
// program.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// replicaNode is one replica of a builder store: the builder-side
// Publisher ring, the replica's own store and its Puller.
type replicaNode struct {
	store  *store
	puller *replica.Puller
	// frameBytes is the size of the last frame SyncNow applied.
	frameBytes int
}

func newReplica(builder *store, history int) *replicaNode {
	r := &replicaNode{store: server.NewStore(nil)}
	r.puller = &replica.Puller{
		Builder: "http://builder",
		Store:   r.store,
		Client:  &http.Client{Transport: handlerTransport{replica.NewPublisher(builder, history)}},
		OnSync:  func(_ uint64, _ string, n int) { r.frameBytes = n },
	}
	return r
}

func (r *replicaNode) syncNow() error       { return r.puller.SyncNow(context.Background()) }
func (r *replicaNode) deltaSyncs() uint64   { return r.puller.DeltaSyncs() }
func (r *replicaNode) fullSyncs() uint64    { return r.puller.FullSyncs() }
func (r *replicaNode) tornRejected() uint64 { return r.puller.TornRejected() }
func fingerprint(snap *snapshot) uint64     { return replica.Fingerprint(snap) }

// ---- stream ----

func newPipeline(pg *pageGraph, ds *dataset, workers int, st *store) (*pipeline, error) {
	return stream.NewPipeline(pg, stream.Options{Spam: ds.SpamSources, Workers: workers, Name: ds.Name, Store: st})
}

func applyDeltas(p *pipeline, ds []delta) error {
	_, err := p.Apply(ds)
	return err
}

func refresh(p *pipeline) (refreshStats, error) {
	_, st, err := p.Refresh()
	return st, err
}

func emitSourceGraph(p *pipeline) *sourceGraph { return p.Ingestor().Emit() }
func structureVersion(p *pipeline) uint64      { return p.Ingestor().StructureVersion() }

func addEdge(from, to pageID) delta    { return stream.AddEdge(from, to) }
func removeEdge(from, to pageID) delta { return stream.RemoveEdge(from, to) }
func touchPage(p pageID) delta         { return stream.TouchPage(p) }

// ---- webgraph ----

func compressFrom(c *streamCorpus) (*compressed, error) { return webgraph.CompressFrom(c) }

func buildTransitionSlabs(dir string, c *compressed, float32Vals bool) (slabPaths, error) {
	opt := webgraph.SlabOptions{}
	if float32Vals {
		opt.Precision = linalg.SlabFloat32
	}
	return webgraph.BuildTransitionSlabs(nil, dir, c, opt)
}

func decompress(c *compressed, workers int) (*topology, error) { return c.DecompressParallel(workers) }
func bitsPerEdge(c *compressed) float64                        { return c.BitsPerEdge() }
func numEdges(c *compressed) int64                             { return c.NumEdges() }

// ---- linalg ----

// pageRankAlpha is rank.Options' default mixing parameter, passed
// explicitly to the linalg solvers so slab and heap solves agree.
const pageRankAlpha = 0.85

// slabOperand is an open slab-backed Pᵀ at either precision.
type slabOperand struct {
	f64 *linalg.SlabCSR
	f32 *linalg.SlabCSR32
}

func openSlab(path string, maxResident int64, float32Vals bool) (*slabOperand, error) {
	opt := linalg.SlabOpenOptions{MaxResident: maxResident}
	if float32Vals {
		s, err := linalg.OpenSlabCSR32(path, opt)
		return &slabOperand{f32: s}, err
	}
	s, err := linalg.OpenSlabCSR(path, opt)
	return &slabOperand{f64: s}, err
}

func (s *slabOperand) solve(workers int) (vector, iterStats, error) {
	opt := linalg.SolverOptions{Workers: workers}
	if s.f32 != nil {
		return linalg.PowerMethodT32Uniform(s.f32.Matrix(), pageRankAlpha, opt)
	}
	return linalg.PowerMethodTUniform(s.f64.Matrix(), pageRankAlpha, opt)
}

func (s *slabOperand) close() error {
	if s.f32 != nil {
		return s.f32.Close()
	}
	return s.f64.Close()
}

// slabShape reports the rows and stored entries of a slab file.
func slabShape(path string) (rows int, nnz int64, err error) {
	si, err := linalg.ReadSlabInfo(nil, path)
	return si.Rows, si.NNZ, err
}

// solveTransposed is the in-heap twin of slabOperand.solve on an
// already-built Pᵀ (used for the single-thread heap baseline).
func solveTransposed(tt *csr, workers int) (vector, iterStats, error) {
	return linalg.PowerMethodTUniform(tt, pageRankAlpha, linalg.SolverOptions{Workers: workers})
}

// ---- rank ----

func pageRank(g *topology, workers int, float32Vals bool) (vector, iterStats, error) {
	opt := rank.Options{Workers: workers}
	if float32Vals {
		opt.Precision = linalg.Float32
	}
	res, err := rank.PageRank(g, opt)
	if err != nil {
		return nil, iterStats{}, err
	}
	return res.Scores, res.Stats, nil
}

func transitionT(g *topology) *csr { return rank.TransitionT(g) }

// ---- rankeval ----

// spamDemotionAUC is rankeval.AUC of the negated scores against the spam
// labels: 1.0 means every spam source ranks below every legitimate one.
func spamDemotionAUC(scores vector, spam []int32) (float64, error) {
	neg := make(vector, len(scores))
	for i, s := range scores {
		neg[i] = -s
	}
	return rankeval.AUC(neg, spam)
}

// ---- sysmem ----

func peakRSSBytes() int64 {
	b, _ := sysmem.PeakRSSBytes()
	return b
}

func resetPeakRSS() { sysmem.ResetPeakRSS() }
