package replica

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"

	"sourcerank/internal/durable"
	"sourcerank/internal/linalg"
	"sourcerank/internal/server"
)

// at is snap as the publisher's ring holds it, with its metaCRC.
func at(snap *server.Snapshot) *entry { return &entry{snap: snap, meta: metaCRC(snap)} }

// fullFrame is snap's frame with no base.
func fullFrame(snap *server.Snapshot) []byte { return encode(nil, at(snap)) }

// frameOver is the publisher's choice for a replica holding base: a
// frame over base when base carries to, else one with no base.
func frameOver(base, to *server.Snapshot) []byte {
	b, c := at(base), at(to)
	if !b.carries(c) {
		b = nil
	}
	return encode(b, c)
}

// decodeApply is the puller's half: decode payload and build its
// snapshot over base (nil for none).
func decodeApply(payload []byte, base *server.Snapshot) (*frame, *server.Snapshot, error) {
	f, err := decode(payload)
	if err != nil {
		return nil, nil, err
	}
	var meta uint32
	if base != nil {
		meta = metaCRC(base)
	}
	snap, _, err := f.apply(base, meta)
	return f, snap, err
}

// publishAt publishes snap on a throwaway store at version v, so it
// carries real publish metadata.
func publishAt(t testing.TB, snap *server.Snapshot, v uint64) *server.Snapshot {
	t.Helper()
	st := server.NewStore(nil)
	if err := st.PublishExternal(snap, v); err != nil {
		t.Fatalf("publish v%d: %v", v, err)
	}
	return st.Current()
}

// shape names each section of f: dense, patches, or carried (no patch).
func shape(f *frame) []string {
	var out []string
	for _, s := range f.sections {
		switch {
		case s.kind == sectionDense:
			out = append(out, "dense")
		case len(s.idx) > 0:
			out = append(out, "patches")
		default:
			out = append(out, "carried")
		}
	}
	return out
}

// testSnapshot builds a published-shaped snapshot with deterministic
// pseudo-random scores for all three algorithms. version is applied via
// a throwaway store so the snapshot carries real publish metadata.
func testSnapshot(t testing.TB, n int, seed int64, version uint64) *server.Snapshot {
	t.Helper()
	return publishAt(t, rawSnapshot(t, n, seed), version)
}

func rawSnapshot(t testing.TB, n int, seed int64) *server.Snapshot {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	labels := make([]string, n)
	pages := make([]int, n)
	for i := range labels {
		labels[i] = "src-" + string(rune('a'+i%26)) + "-" + itoa(i)
		pages[i] = 1 + rnd.Intn(40)
	}
	sets := make(map[server.Algo]*server.ScoreSet)
	for ai, algo := range server.DefaultAlgos {
		scores := make(linalg.Vector, n)
		for i := range scores {
			scores[i] = rnd.Float64()
		}
		sets[algo] = server.NewScoreSetSolved(scores, linalg.IterStats{Iterations: 12 + ai, Residual: 1e-9, Converged: true}, 3*time.Millisecond, ai%2 == 0)
	}
	snap, err := server.NewSnapshot(server.CorpusInfo{Name: "codec-test", Pages: n * 10, Links: int64(n * 50), SpamLabeled: n / 5}, labels, pages, 3, sets, time.Unix(1700000000, 42))
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	return snap
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// perturb clones base with a fraction of each algorithm's scores
// changed, reusing base's labels and page counts (same pointers — the
// shape a frame over base carries).
func perturb(t testing.TB, base *server.Snapshot, seed int64, frac float64) *server.Snapshot {
	t.Helper()
	return successor(t, base, seed, frac, base.Algos()...)
}

// successor builds the snapshot a refresh would publish over base: the
// algorithms named in patch get a clone with a fraction of the scores
// changed, every other algorithm keeps base's very vector (a skipped
// solve), and labels and page counts are base's arrays.
func successor(t testing.TB, base *server.Snapshot, seed int64, frac float64, patch ...server.Algo) *server.Snapshot {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	sets := make(map[server.Algo]*server.ScoreSet)
	for _, algo := range base.Algos() {
		ss := base.Set(algo)
		scores := ss.ScoresView()
		if slices.Contains(patch, algo) {
			scores = append(linalg.Vector(nil), scores...)
			for i := range scores {
				if rnd.Float64() < frac {
					scores[i] = rnd.Float64()
				}
			}
		}
		sets[algo] = server.NewScoreSetSolved(scores, ss.Stats(), ss.SolveTime(), ss.WarmStarted())
	}
	snap, err := server.NewSnapshot(base.Corpus(), base.LabelsView(), base.PageCountsView(), base.KappaTopK(), sets, time.Unix(1700000100, 7))
	if err != nil {
		t.Fatalf("successor: %v", err)
	}
	return snap
}

func TestFullRoundTrip(t *testing.T) {
	snap := testSnapshot(t, 57, 1, 4)
	payload := fullFrame(snap)

	f, decoded, err := decodeApply(payload, nil)
	if err != nil {
		t.Fatalf("decode and apply: %v", err)
	}
	if f.version != 4 || f.parent != 0 || f.from != 0 {
		t.Fatalf("version/parent/from = %d/%d/%d, want 4/0/0", f.version, f.parent, f.from)
	}
	if f.corpus.Name != "codec-test" || f.kappaTopK != 3 {
		t.Fatalf("corpus/kappa = %+v/%d", f.corpus, f.kappaTopK)
	}
	if got := shape(f); !slices.Equal(got, []string{"dense", "dense", "dense"}) {
		t.Fatalf("sections %v, want all dense", got)
	}
	// Publish through a replica-local store, as the puller does, so the
	// reconstruction carries the builder's version.
	got := publishAt(t, decoded, f.version)
	if Fingerprint(got) != Fingerprint(snap) {
		t.Fatal("round-tripped snapshot fingerprint differs from source")
	}
	for _, algo := range snap.Algos() {
		want, have := snap.Set(algo), got.Set(algo)
		if have == nil {
			t.Fatalf("algo %q lost in round trip", algo)
		}
		for i, v := range want.ScoresView() {
			if math.Float64bits(have.ScoresView()[i]) != math.Float64bits(v) {
				t.Fatalf("%s score[%d] = %v, want %v", algo, i, have.ScoresView()[i], v)
			}
		}
		if have.Stats() != want.Stats() || have.SolveTime() != want.SolveTime() || have.WarmStarted() != want.WarmStarted() {
			t.Fatalf("%s solve provenance lost", algo)
		}
	}
	// Determinism: re-encoding the reconstruction is byte-identical.
	if string(fullFrame(got)) != string(payload) {
		t.Fatal("re-encoded full frame is not byte-identical")
	}
}

func TestFullDecodeRejectsEveryCorruption(t *testing.T) {
	payload := fullFrame(testSnapshot(t, 23, 2, 1))
	if _, err := decode(payload); err != nil {
		t.Fatalf("clean decode: %v", err)
	}
	// Truncations must never decode (nor panic).
	for cut := 0; cut < len(payload); cut++ {
		if _, err := decode(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	// Trailing garbage must be rejected.
	if _, err := decode(append(append([]byte(nil), payload...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestFullDecodeSurvivesBitFlips(t *testing.T) {
	payload := fullFrame(testSnapshot(t, 11, 3, 1))
	// Flip one bit at every byte position: decode and apply must either
	// fail with ErrFrame or produce a snapshot — never panic. (Score bytes
	// are CRC-protected, so a flip there must fail; flips in labels or
	// provenance may decode, and are the durable trailer's to catch.)
	for i := range payload {
		mut := append([]byte(nil), payload...)
		mut[i] ^= 0x10
		if _, err := decode(mut); err != nil && !errors.Is(err, ErrFrame) {
			t.Fatalf("flip at %d: error %v does not wrap ErrFrame", i, err)
		}
		_, _, _ = decodeApply(mut, nil)
	}
}

func TestDeltaRoundTripAppliesToFullIdentity(t *testing.T) {
	st := server.NewStore(nil)
	if err := st.PublishExternal(rawSnapshot(t, 64, 4), 7); err != nil {
		t.Fatal(err)
	}
	base := st.Current()
	if err := st.PublishExternal(perturb(t, base, 5, 0.2), 8); err != nil {
		t.Fatal(err)
	}
	to := st.Current()

	payload := frameOver(base, to)
	full := fullFrame(to)
	if len(payload) >= len(full) {
		t.Fatalf("delta (%d bytes) not smaller than full (%d bytes) at 20%% churn", len(payload), len(full))
	}
	// Replay the replica flow: first sync applies base's frame alone, the
	// delta then patches over it, each published with the builder's
	// version so lineage matches.
	bf, bsnap, err := decodeApply(fullFrame(base), nil)
	if err != nil {
		t.Fatal(err)
	}
	rst := server.NewStore(nil)
	if err := rst.PublishExternal(bsnap, bf.version); err != nil {
		t.Fatal(err)
	}
	rbase := rst.Current()
	f, patched, err := decodeApply(payload, rbase)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if err := rst.PublishExternal(patched, f.version); err != nil {
		t.Fatal(err)
	}
	if f.from != 7 || f.version != 8 || f.labels != nil {
		t.Fatalf("from/version = %d/%d with %d labels, want 7/8 with none", f.from, f.version, len(f.labels))
	}
	if got := shape(f); !slices.Equal(got, []string{"patches", "patches", "patches"}) {
		t.Fatalf("sections %v at 20%% churn, want all patches", got)
	}
	if Fingerprint(patched) != Fingerprint(to) {
		t.Fatal("patched snapshot fingerprint differs from the builder's target")
	}
	// The delta path must produce state byte-identical to a full pull.
	if string(fullFrame(rst.Current())) != string(full) {
		t.Fatal("patched snapshot does not re-encode byte-identical to a full transfer")
	}
	// Labels must be shared by pointer with the replica's base snapshot
	// so the serving pre-encoder's delta reuse keeps working downstream.
	if &patched.LabelsView()[0] != &rbase.LabelsView()[0] {
		t.Fatal("patched snapshot does not share the base label backing array")
	}
}

func TestDeltaApplyRejectsMismatchedBase(t *testing.T) {
	base := testSnapshot(t, 32, 6, 3)
	f, err := decode(frameOver(base, publishAt(t, perturb(t, base, 7, 0.1), 4)))
	if err != nil {
		t.Fatal(err)
	}
	for name, other := range map[string]*server.Snapshot{
		"no local snapshot": nil,
		"wrong version":     testSnapshot(t, 32, 6, 99),
		"diverged labels":   testSnapshot(t, 32, 999, 3), // same version number
	} {
		var meta uint32
		if other != nil {
			meta = metaCRC(other)
		}
		if _, _, err := f.apply(other, meta); !errors.Is(err, ErrFrame) {
			t.Errorf("apply against %s: %v, want ErrFrame", name, err)
		}
	}
}

func TestDeltaDecodeRejectsTruncationAndPatchCorruption(t *testing.T) {
	base := testSnapshot(t, 40, 8, 1)
	payload := frameOver(base, publishAt(t, perturb(t, base, 9, 0.15), 2))
	for cut := 0; cut < len(payload); cut++ {
		if _, err := decode(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	// A corrupted patch value that still decodes structurally must be
	// caught by the section CRC at apply time.
	f, err := decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.sections) == 0 || len(f.sections[0].val) == 0 {
		t.Fatal("no patches to corrupt")
	}
	f.sections[0].val[0] += 1e-12
	if _, _, err := f.apply(base, metaCRC(base)); !errors.Is(err, ErrFrame) {
		t.Fatalf("corrupted patch applied cleanly: %v", err)
	}
}

// serve asks pub for the frame a replica holding version have (0: none)
// receives, and decodes it.
func serve(t *testing.T, pub *Publisher, have uint64) (*frame, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/replica/snapshot", nil)
	if have != 0 {
		req.Header.Set("If-None-Match", `"v`+itoa(int(have))+`"`)
	}
	rec := httptest.NewRecorder()
	pub.ServeHTTP(rec, req)
	payload, err := durable.Verify(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("status %d: %v", rec.Code, err)
	}
	f, err := decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	return f, rec.Header().Get("X-Replica-Encoding")
}

// TestEncodeChoosesBaseAndSections pins the publisher's choice. A base
// whose meta, source count or algorithm set differs from the new
// snapshot cannot carry it, so the frame has no base; deciding that
// allocates under a byte a source. Over a base that carries it, a fully
// churned algorithm goes dense, a sparse change as patches, and neither
// resends a label.
func TestEncodeChoosesBaseAndSections(t *testing.T) {
	const n = 4000
	for name, next := range map[string]func(base *server.Snapshot) *server.Snapshot{
		"diverged meta": func(*server.Snapshot) *server.Snapshot { return rawSnapshot(t, n, 11) },
		"more sources":  func(*server.Snapshot) *server.Snapshot { return rawSnapshot(t, n+1, 10) },
		"fewer algorithms": func(base *server.Snapshot) *server.Snapshot {
			sets := map[server.Algo]*server.ScoreSet{}
			for _, algo := range base.Algos()[1:] {
				ss := base.Set(algo)
				sets[algo] = server.NewScoreSetSolved(ss.ScoresView(), ss.Stats(), ss.SolveTime(), ss.WarmStarted())
			}
			snap, err := server.NewSnapshot(base.Corpus(), base.LabelsView(), base.PageCountsView(), base.KappaTopK(), sets, base.BuiltAt())
			if err != nil {
				t.Fatal(err)
			}
			return snap
		},
	} {
		bst := server.NewStore(nil)
		bst.Publish(rawSnapshot(t, n, 10))
		pub := NewPublisher(bst, 8)
		have := bst.Current()
		serve(t, pub, 0) // the ring holds have
		bst.Publish(next(have))
		if f, enc := serve(t, pub, have.Version()); f.from != 0 || enc != "full" || len(f.labels) != bst.Current().NumSources() {
			t.Errorf("%s: frame from %d (%s) with %d labels, want a full frame", name, f.from, enc, len(f.labels))
		}
		b, c := at(have), at(bst.Current())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			if b.carries(c) {
				t.Fatalf("%s: base carries its successor", name)
			}
		}
		runtime.ReadMemStats(&after)
		if a := (after.TotalAlloc - before.TotalAlloc) / 10; a > n {
			t.Errorf("%s: declining the base allocated %d bytes over %d sources, want under one a source", name, a, n)
		}
	}

	from := testSnapshot(t, 30, 12, 1)
	for name, tc := range map[string]struct {
		frac float64
		want string
	}{
		"churned": {1.0, "dense"},
		"sparse":  {0.1, "patches"},
	} {
		to := publishAt(t, perturb(t, from, 13, tc.frac), 2)
		f, snap, err := decodeApply(frameOver(from, to), from)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.from != 1 || f.labels != nil || f.pageCount != nil {
			t.Errorf("%s: frame from %d carries %d labels, want from 1 and none", name, f.from, len(f.labels))
		}
		if got := shape(f); !slices.Equal(got, []string{tc.want, tc.want, tc.want}) {
			t.Errorf("%s: sections %v, want all %s", name, got, tc.want)
		}
		if Fingerprint(snap) != Fingerprint(to) {
			t.Errorf("%s: applied frame differs from the builder's snapshot", name)
		}
	}
}

// TestRewireShipsDenseSectionsOverBase is a rewire's sync: every score of
// every algorithm moves (a global fixed point) while labels and page
// counts stay. The frame goes over the replica's version, holds a dense
// vector and a CRC per algorithm and nothing else of size, and the
// replica lands on the builder's state.
func TestRewireShipsDenseSectionsOverBase(t *testing.T) {
	const (
		n           = 500
		headerBytes = 256 // envelope, header, from, n, metaCRC, section names and solve info, durable trailer
	)
	bst := server.NewStore(nil)
	bst.Publish(rawSnapshot(t, n, 61))
	rst := server.NewStore(nil)
	p := &Puller{Builder: "http://builder", Store: rst, Client: &http.Client{Transport: handlerTransport{NewPublisher(bst, 8)}}}
	frameBytes := 0
	p.OnSync = func(_ uint64, _ string, b int) { frameBytes = b }
	if err := p.SyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	full := frameBytes
	bst.Publish(perturb(t, bst.Current(), 62, 1.0))
	for _, algo := range bst.Current().Algos() {
		old, cur := rst.Current().Set(algo).ScoresView(), bst.Current().Set(algo).ScoresView()
		for i := range cur {
			if cur[i] == old[i] {
				t.Fatalf("%s[%d] did not move", algo, i)
			}
		}
	}
	if err := p.SyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p.DeltaSyncs() != 1 || p.FullSyncs() != 1 {
		t.Fatalf("delta/full syncs = %d/%d, want 1/1", p.DeltaSyncs(), p.FullSyncs())
	}
	if limit := 3*(8*n+4) + headerBytes; frameBytes > limit {
		t.Fatalf("rewire frame %d bytes, want at most %d (full frame %d)", frameBytes, limit, full)
	}
	if Fingerprint(rst.Current()) != Fingerprint(bst.Current()) {
		t.Fatal("replica state differs from the builder after a rewire sync")
	}
}

// FuzzDecodeFrame: arbitrary bytes never panic the decoder or apply, and
// decoding allocates within a constant factor of the bytes present, so a
// corrupt count cannot force a huge allocation. The seeds are valid
// frames of every shape, each of which lands on the builder's state.
func FuzzDecodeFrame(f *testing.F) {
	base := testSnapshot(f, 24, 51, 1)
	mixed := successor(f, successor(f, base, 52, 1.0, server.AlgoSRSR), 53, 0.2, server.AlgoPageRank)
	for _, seed := range []struct {
		to   *server.Snapshot
		over bool
		want []string
	}{
		{base, false, []string{"dense", "dense", "dense"}},
		{successor(f, base, 54, 0.2, base.Algos()...), true, []string{"patches", "patches", "patches"}},
		{successor(f, base, 55, 1.0, base.Algos()...), true, []string{"dense", "dense", "dense"}},
		{successor(f, base, 56, 0), true, []string{"carried", "carried", "carried"}},
		{mixed, true, []string{"patches", "dense", "carried"}},
	} {
		to, payload, over := seed.to, fullFrame(seed.to), (*server.Snapshot)(nil)
		if seed.over {
			to = publishAt(f, seed.to, 2)
			payload, over = frameOver(base, to), base
		}
		fr, snap, err := decodeApply(payload, over)
		if err != nil {
			f.Fatal(err)
		}
		if got := shape(fr); !slices.Equal(got, seed.want) {
			f.Fatalf("seed sections %v, want %v", got, seed.want)
		}
		if Fingerprint(snap) != Fingerprint(to) {
			f.Fatalf("seed %v does not land on the builder's fingerprint", seed.want)
		}
		f.Add(payload)
	}
	baseMeta := metaCRC(base)
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr, err := decode(data)
		runtime.ReadMemStats(&after)
		if a := after.TotalAlloc - before.TotalAlloc; a > 32*uint64(len(data))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), a)
		}
		if err != nil {
			if !errors.Is(err, ErrFrame) {
				t.Fatalf("error %v does not wrap ErrFrame", err)
			}
			return
		}
		_, _, _ = fr.apply(base, baseMeta)
	})
}
