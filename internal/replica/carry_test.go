package replica

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"sourcerank/internal/durable"
	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/server"
	"sourcerank/internal/source"
)

// handlerTransport answers pulls by calling the builder's sync handler
// in process.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// TestZeroPatchSharesVectorAndIndex: an algorithm whose patch is empty
// keeps the base's very vector through apply and its index and rendered
// responses through the publish, while a patched one is cloned — and the
// checks an empty patch still owes are all still made.
func TestZeroPatchSharesVectorAndIndex(t *testing.T) {
	bst := server.NewStore(nil)
	bst.Publish(rawSnapshot(t, 64, 31))
	from := bst.Current()
	bst.Publish(successor(t, from, 1, 0.1, server.AlgoSRSR))
	to := bst.Current()

	bf, bsnap, err := decodeApply(fullFrame(from), nil)
	if err != nil {
		t.Fatal(err)
	}
	rst := server.NewStore(nil)
	if err := rst.PublishExternal(bsnap, bf.version); err != nil {
		t.Fatal(err)
	}
	base := rst.Current()
	decodeFrame := func() *frame {
		f, err := decode(frameOver(from, to))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	patched, shared, err := decodeFrame().apply(base, metaCRC(base))
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if shared != 2 {
		t.Fatalf("apply shared %d vectors, want 2", shared)
	}
	for _, algo := range base.Algos() {
		shared := &patched.Set(algo).ScoresView()[0] == &base.Set(algo).ScoresView()[0]
		if want := algo != server.AlgoSRSR; shared != want {
			t.Fatalf("%s: vector shared with base = %v, want %v", algo, shared, want)
		}
	}
	if err := rst.PublishExternal(patched, to.Version()); err != nil {
		t.Fatal(err)
	}
	// Two full publishes' worth of rendered sets would be 6; the delta
	// publish must have carried the two unpatched ones instead.
	if reused, rendered := rst.PublishSets(); reused != 2 || rendered != 4 {
		t.Fatalf("replica publish sets reused/rendered = %d/%d, want 2/4", reused, rendered)
	}
	if string(fullFrame(rst.Current())) != string(fullFrame(to)) {
		t.Fatal("patched snapshot does not re-encode byte-identical to a full transfer")
	}

	// Every check still guards the unpatched algorithms.
	zero := -1
	for i, s := range decodeFrame().sections {
		if s.kind == sectionPatches && len(s.idx) == 0 {
			zero = i
		}
	}
	if zero < 0 {
		t.Fatal("frame has no empty patch")
	}
	for name, tamper := range map[string]func(f *frame){
		"wrong section CRC":  func(f *frame) { f.sections[zero].crc ^= 1 },
		"wrong metaCRC":      func(f *frame) { f.metaCRC ^= 1 },
		"stale from":         func(f *frame) { f.from-- },
		"index out of range": func(f *frame) { f.sections[zero].idx, f.sections[zero].val = []int32{64}, []float64{0} },
		"negative index":     func(f *frame) { f.sections[zero].idx, f.sections[zero].val = []int32{-1}, []float64{0} },
	} {
		f := decodeFrame()
		tamper(f)
		if _, _, err := f.apply(base, metaCRC(base)); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: apply = %v, want ErrFrame", name, err)
		}
	}
}

// TestPullerRejectsTamperedZeroPatchAndKeepsServing sends a delta whose
// durable trailer is intact but whose empty patch claims the wrong
// section CRC: the puller must reject it as a bad frame and leave the
// base serving.
func TestPullerRejectsTamperedZeroPatchAndKeepsServing(t *testing.T) {
	bst := server.NewStore(nil)
	bst.Publish(rawSnapshot(t, 40, 33))
	pub := NewPublisher(bst, 8)
	rst := server.NewStore(nil)
	p := &Puller{Builder: "http://builder", Store: rst, Client: &http.Client{Transport: handlerTransport{pub}}}
	if err := p.SyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	served := rst.Current()
	from := bst.Current()
	bst.Publish(successor(t, from, 2, 0.1, server.AlgoPageRank))
	payload := frameOver(from, bst.Current())
	payload[len(payload)-1] ^= 0x40 // the CRC of trustrank, the last and unpatched algorithm
	tampered := durable.Frame(payload)
	p.Client = &http.Client{Transport: handlerTransport{http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(tampered)
	})}}
	if err := p.SyncNow(context.Background()); !errors.Is(err, ErrFrame) {
		t.Fatalf("tampered sync = %v, want ErrFrame", err)
	}
	if p.TornRejected() != 1 || rst.Current() != served {
		t.Fatalf("torn rejected = %d, serving snapshot disturbed = %v", p.TornRejected(), rst.Current() != served)
	}
	p.Client = &http.Client{Transport: handlerTransport{pub}}
	if err := p.SyncNow(context.Background()); err != nil {
		t.Fatalf("recovery sync: %v", err)
	}
	if Fingerprint(rst.Current()) != Fingerprint(bst.Current()) {
		t.Fatal("replica did not converge after the rejected frame")
	}
}

// TestPullerRefusesPoisonedScore: a full frame encoded from a finite
// snapshot, one of whose scores is overwritten with NaN bits and its
// section CRC and durable trailer re-sealed, passes every frame check and
// is refused by server.NewSnapshot; the replica keeps serving its version.
func TestPullerRefusesPoisonedScore(t *testing.T) {
	const n = 40
	bst := server.NewStore(nil)
	bst.Publish(rawSnapshot(t, n, 35))
	pub := NewPublisher(bst, 8)
	rst := server.NewStore(nil)
	p := &Puller{Builder: "http://builder", Store: rst, Client: &http.Client{Transport: handlerTransport{pub}}}
	if err := p.SyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	served := rst.Current()
	bst.Publish(successor(t, bst.Current(), 4, 0.1, server.AlgoTrustRank))
	next := bst.Current()
	// trustrank is the last section: n dense values, then their CRC.
	payload := fullFrame(next)
	values := payload[len(payload)-4-8*n : len(payload)-4]
	poisoned := slices.Clone(next.Set(server.AlgoTrustRank).ScoresView())
	poisoned[7] = math.NaN()
	binary.LittleEndian.PutUint64(values[8*7:], math.Float64bits(poisoned[7]))
	binary.LittleEndian.PutUint32(payload[len(payload)-4:], scoreCRC(poisoned))
	if _, _, err := decodeApply(payload, nil); !errors.Is(err, linalg.ErrNonFinite) {
		t.Fatalf("decoding the poisoned frame = %v, want linalg.ErrNonFinite", err)
	}
	framed := durable.Frame(payload)
	p.Client = &http.Client{Transport: handlerTransport{http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(framed)
	})}}
	if err := p.SyncNow(context.Background()); !errors.Is(err, linalg.ErrNonFinite) {
		t.Fatalf("poisoned sync = %v, want linalg.ErrNonFinite", err)
	}
	if rst.Current() != served || p.Version() != served.Version() || p.ConsecutiveFailures() != 1 {
		t.Fatalf("replica at v%d (serving v%d), %d failures; want v%d kept and 1 failure",
			p.Version(), rst.Current().Version(), p.ConsecutiveFailures(), served.Version())
	}
}

// TestPullerRejectsOtherWireVersionAndKeepsServing: a builder and its
// replicas run one wire version. A frame of version 1 — CRC-valid, from
// a builder that predates the one-frame layout — is a bad frame: it is
// counted torn and the previous snapshot keeps serving.
func TestPullerRejectsOtherWireVersionAndKeepsServing(t *testing.T) {
	bst := server.NewStore(nil)
	bst.Publish(rawSnapshot(t, 40, 37))
	rst := server.NewStore(nil)
	p := &Puller{Builder: "http://builder", Store: rst, Client: &http.Client{Transport: handlerTransport{NewPublisher(bst, 8)}}}
	if err := p.SyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	served := rst.Current()
	bst.Publish(perturb(t, bst.Current(), 38, 0.1))
	payload := fullFrame(bst.Current())
	payload[4] = 1 // the wire version, after the magic
	old := durable.Frame(payload)
	p.Client = &http.Client{Transport: handlerTransport{http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(old)
	})}}
	if err := p.SyncNow(context.Background()); !errors.Is(err, ErrFrame) {
		t.Fatalf("version 1 sync = %v, want ErrFrame", err)
	}
	if p.TornRejected() != 1 || rst.Current() != served {
		t.Fatalf("torn rejected = %d, serving snapshot disturbed = %v", p.TornRejected(), rst.Current() != served)
	}
}

// TestDeltaLineageServesSameBytesAsFullPull brings one replica to
// version N through deltas that mix empty and non-empty patches (and one
// that changes nothing at all) and another there by a single full pull:
// every /v1/topk prefix and every /v1/rank document must be the same
// bytes on both.
func TestDeltaLineageServesSameBytesAsFullPull(t *testing.T) {
	const n = 37
	bst := server.NewStore(nil)
	bst.Publish(rawSnapshot(t, n, 35))
	pub := NewPublisher(bst, 8)
	pull := func() (*Puller, *server.Store) {
		st := server.NewStore(nil)
		return &Puller{Builder: "http://builder", Store: st, Client: &http.Client{Transport: handlerTransport{pub}}}, st
	}
	viaDeltas, dst := pull()
	sync := func(p *Puller) {
		t.Helper()
		if err := p.SyncNow(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	sync(viaDeltas)
	for i, patch := range [][]server.Algo{
		{server.AlgoSRSR},
		{},
		{server.AlgoPageRank, server.AlgoTrustRank},
		{server.AlgoSRSR, server.AlgoPageRank, server.AlgoTrustRank},
		{},
	} {
		bst.Publish(successor(t, bst.Current(), int64(10+i), 0.15, patch...))
		sync(viaDeltas)
	}
	if viaDeltas.DeltaSyncs() != 5 || viaDeltas.FullSyncs() != 1 {
		t.Fatalf("delta/full syncs = %d/%d, want 5/1", viaDeltas.DeltaSyncs(), viaDeltas.FullSyncs())
	}
	if got := viaDeltas.SetsShared(); got != 2+3+1+0+3 {
		t.Fatalf("SetsShared = %d, want 9", got)
	}
	viaFull, fst := pull()
	sync(viaFull)
	if viaFull.FullSyncs() != 1 || dst.Current().Version() != fst.Current().Version() {
		t.Fatalf("full-pull replica at v%d after %d full syncs, delta replica at v%d", fst.Current().Version(), viaFull.FullSyncs(), dst.Current().Version())
	}
	hd, hf := server.New(dst, server.Config{}).Handler(), server.New(fst, server.Config{}).Handler()
	get := func(h http.Handler, path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		return rec.Header().Get("Etag") + "\n" + rec.Body.String()
	}
	for _, algo := range server.DefaultAlgos {
		for k := 0; k <= n; k++ {
			path := fmt.Sprintf("/v1/topk?algo=%s&n=%d", algo, k)
			if a, b := get(hd, path), get(hf, path); a != b {
				t.Fatalf("%s differs\nvia deltas:\n%s\nvia full pull:\n%s", path, a, b)
			}
		}
		for id := 0; id < n; id++ {
			path := fmt.Sprintf("/v1/rank/%d?algo=%s", id, algo)
			if a, b := get(hd, path), get(hf, path); a != b {
				t.Fatalf("%s differs\nvia deltas:\n%s\nvia full pull:\n%s", path, a, b)
			}
		}
	}
}

// benchSources matches the benchmark corpus (UK2002 at scale 0.1).
const benchSources = 9822

// BenchmarkDeltaSyncUnchanged is the replica's cost of a refresh that
// changed nothing: a 195-byte delta frame, every patch empty, through
// Puller.SyncNow over an in-process transport. CI gates its B/op.
func BenchmarkDeltaSyncUnchanged(b *testing.B) {
	bst := server.NewStore(nil)
	bst.Publish(rawSnapshot(b, benchSources, 41))
	rst := server.NewStore(nil)
	p := &Puller{Builder: "http://builder", Store: rst, Client: &http.Client{Transport: handlerTransport{NewPublisher(bst, 8)}}}
	frame := 0
	p.OnSync = func(_ uint64, _ string, n int) { frame = n }
	ctx := context.Background()
	if err := p.SyncNow(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bst.Publish(successor(b, bst.Current(), int64(i), 0))
		b.StartTimer()
		if err := p.SyncNow(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if p.DeltaSyncs() != uint64(b.N) || p.SetsShared() != 3*uint64(b.N) {
		b.Fatalf("%d delta syncs sharing %d sets over %d iterations", p.DeltaSyncs(), p.SetsShared(), b.N)
	}
	b.ReportMetric(float64(frame), "frame-B")
}

// BenchmarkFullSync is a replica's cold start: a store with nothing
// served pulls a frame with no base through Puller.SyncNow over an
// in-process transport, decodes it and publishes it, finalize included.
// One untimed sync first fills the publisher's frame cache and
// encoding/json's per-type caches, so that CI's 1x run counts what a
// sync allocates; one allocation per label or per score (9,822 each at
// the benchmark's corpus) means a per-entry path is back in decode,
// apply or finalize.
func BenchmarkFullSync(b *testing.B) {
	bst := server.NewStore(nil)
	bst.Publish(rawSnapshot(b, benchSources, 41))
	client := &http.Client{Transport: handlerTransport{NewPublisher(bst, 8)}}
	ctx := context.Background()
	pull := func() *Puller {
		p := &Puller{Builder: "http://builder", Store: server.NewStore(nil), Client: client}
		if err := p.SyncNow(ctx); err != nil {
			b.Fatal(err)
		}
		return p
	}
	pull()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := pull(); p.FullSyncs() != 1 {
			b.Fatalf("%d full syncs", p.FullSyncs())
		}
	}
}

// TestAllSpamBuildSyncsFull: a build where every source is labeled spam
// (κ ≡ 1 everywhere) leaves TrustRank out, since no source is left to
// trust. Over the same corpus the meta and the source count hold, so
// only the changed algorithm set keeps the replica's base from carrying
// the new snapshot: that sync must be a full frame, after which the
// replica serves the builder's bytes and no TrustRank.
func TestAllSpamBuildSyncsFull(t *testing.T) {
	const n = 6
	pg := pagegraph.New()
	for s := 0; s < n; s++ {
		pg.AddPage(pg.AddSource(fmt.Sprintf("ring-%d.example", s)))
	}
	for s := 0; s < n; s++ {
		pg.AddLink(pagegraph.PageID(s), pagegraph.PageID((s+1)%n))
	}
	sg, err := source.Build(pg, source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := &server.Builder{Config: server.BuildConfig{Workers: 1}}
	bst, rst := server.NewStore(nil), server.NewStore(nil)
	p := &Puller{Builder: "http://builder", Store: rst, Client: &http.Client{Transport: handlerTransport{NewPublisher(bst, 8)}}}
	for i, spam := range [][]int32{{0}, {0, 1, 2, 3, 4, 5}} {
		snap, _, err := b.Build(server.Corpus{Pages: pg, Source: sg}, spam)
		if err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
		bst.Publish(snap)
		if err := p.SyncNow(context.Background()); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
	}
	if p.FullSyncs() != 2 || p.DeltaSyncs() != 0 {
		t.Fatalf("full/delta syncs = %d/%d, want 2/0", p.FullSyncs(), p.DeltaSyncs())
	}
	if got, want := rst.Current().Algos(), []server.Algo{server.AlgoPageRank, server.AlgoSRSR}; !slices.Equal(got, want) {
		t.Fatalf("replica serves %v, want %v", got, want)
	}
	hb, hr := server.New(bst, server.Config{}).Handler(), server.New(rst, server.Config{}).Handler()
	get := func(h http.Handler, path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Header().Get("Etag") + "\n" + rec.Body.String()
	}
	paths := []string{"/v1/topk?algo=trustrank"}
	for _, algo := range []server.Algo{server.AlgoPageRank, server.AlgoSRSR} {
		paths = append(paths, fmt.Sprintf("/v1/topk?algo=%s&n=%d", algo, n))
		for id := 0; id < n; id++ {
			paths = append(paths, fmt.Sprintf("/v1/rank/%d?algo=%s", id, algo))
		}
	}
	for i, path := range paths {
		want := http.StatusOK
		if i == 0 {
			want = http.StatusBadRequest
		}
		cb, bb := get(hb, path)
		cr, br := get(hr, path)
		if cb != want || cr != want || bb != br {
			t.Fatalf("%s: builder %d, replica %d, want %d\nbuilder:\n%s\nreplica:\n%s", path, cb, cr, want, bb, br)
		}
	}
}
