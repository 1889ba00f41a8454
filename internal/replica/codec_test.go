package replica

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"sourcerank/internal/linalg"
	"sourcerank/internal/server"
)

// encDelta and applyDelta are the codec's two halves as the publisher and
// the puller call them, with the MetaCRC those keep memoized computed on
// the spot.
func encDelta(from, to *server.Snapshot) []byte {
	return encodeDelta(from, to, MetaCRC(from), MetaCRC(to))
}

func applyDelta(d *Delta, base *server.Snapshot) (*server.Snapshot, error) {
	snap, _, err := d.apply(base, MetaCRC(base))
	return snap, err
}

// testSnapshot builds a published-shaped snapshot with deterministic
// pseudo-random scores for all three algorithms. version is applied via
// a throwaway store so the snapshot carries real publish metadata.
func testSnapshot(t testing.TB, n int, seed int64, version uint64) *server.Snapshot {
	t.Helper()
	snap := rawSnapshot(t, n, seed)
	st := server.NewStore(nil)
	if err := st.PublishExternal(snap, version); err != nil {
		t.Fatalf("publish v%d: %v", version, err)
	}
	return st.Current()
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
// delta-compatible shape the sync path produces).
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
	payload := EncodeFull(snap)

	kind, err := FrameKind(payload)
	if err != nil || kind != KindFull {
		t.Fatalf("FrameKind = %d, %v; want KindFull", kind, err)
	}
	f, err := DecodeFull(payload)
	if err != nil {
		t.Fatalf("DecodeFull: %v", err)
	}
	if f.Version != 4 || f.Parent != 0 {
		t.Fatalf("version/parent = %d/%d, want 4/0", f.Version, f.Parent)
	}
	if f.Corpus.Name != "codec-test" || f.KappaTopK != 3 {
		t.Fatalf("corpus/kappa = %+v/%d", f.Corpus, f.KappaTopK)
	}
	decoded, err := f.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot(): %v", err)
	}
	// Publish through a replica-local store, as the puller does, so the
	// reconstruction carries the builder's version.
	rst := server.NewStore(nil)
	if err := rst.PublishExternal(decoded, f.Version); err != nil {
		t.Fatalf("republish: %v", err)
	}
	got := rst.Current()
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
	re := EncodeFull(got)
	if string(re) != string(payload) {
		t.Fatal("re-encoded full frame is not byte-identical")
	}
}

func TestFullDecodeRejectsEveryCorruption(t *testing.T) {
	snap := testSnapshot(t, 23, 2, 1)
	payload := EncodeFull(snap)
	if _, err := DecodeFull(payload); err != nil {
		t.Fatalf("clean decode: %v", err)
	}
	// Truncations must never decode (nor panic).
	for cut := 0; cut < len(payload); cut++ {
		if _, err := DecodeFull(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	// Trailing garbage must be rejected.
	if _, err := DecodeFull(append(append([]byte(nil), payload...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestFullDecodeSurvivesBitFlips(t *testing.T) {
	snap := testSnapshot(t, 11, 3, 1)
	payload := EncodeFull(snap)
	want := Fingerprint(snap)
	// Flip one bit at every byte position: decode must either error or
	// produce a snapshot — never panic. (Score bytes are CRC-protected,
	// so a flip there must error; flips in provenance fields may decode
	// but must not corrupt the served scores' fingerprint meta.)
	for i := range payload {
		mut := append([]byte(nil), payload...)
		mut[i] ^= 0x10
		f, err := DecodeFull(mut)
		if err != nil {
			if !errors.Is(err, ErrFrame) {
				t.Fatalf("flip at %d: error %v does not wrap ErrFrame", i, err)
			}
			continue
		}
		if got, err := f.Snapshot(); err == nil && Fingerprint(got) == want {
			// A flip that decodes to the identical fingerprint can only
			// have touched provenance (stats, timestamps) — acceptable.
			_ = got
		}
	}
}

func TestDeltaRoundTripAppliesToFullIdentity(t *testing.T) {
	st := server.NewStore(nil)
	if err := st.PublishExternal(rawSnapshot(t, 64, 4), 7); err != nil {
		t.Fatal(err)
	}
	base := st.Current()
	next := perturb(t, base, 5, 0.2)
	if err := st.PublishExternal(next, 8); err != nil {
		t.Fatal(err)
	}
	to := st.Current()

	payload := encDelta(base, to)
	if payload == nil {
		t.Fatal("encodeDelta returned nil for compatible snapshots")
	}
	full := EncodeFull(to)
	if len(payload) >= len(full) {
		t.Fatalf("delta (%d bytes) not smaller than full (%d bytes) at 20%% churn", len(payload), len(full))
	}
	kind, err := FrameKind(payload)
	if err != nil || kind != KindDelta {
		t.Fatalf("FrameKind = %d, %v; want KindDelta", kind, err)
	}
	d, err := DecodeDelta(payload)
	if err != nil {
		t.Fatalf("DecodeDelta: %v", err)
	}
	if d.From != 7 || d.Version != 8 {
		t.Fatalf("from/version = %d/%d, want 7/8", d.From, d.Version)
	}
	// Replay the replica flow: first sync decodes a full frame of base,
	// the delta then patches over it, each published with the builder's
	// version so lineage matches.
	rst := server.NewStore(nil)
	bf, err := DecodeFull(EncodeFull(base))
	if err != nil {
		t.Fatal(err)
	}
	bsnap, err := bf.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := rst.PublishExternal(bsnap, bf.Version); err != nil {
		t.Fatal(err)
	}
	patched, err := applyDelta(d, rst.Current())
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := rst.PublishExternal(patched, d.Version); err != nil {
		t.Fatal(err)
	}
	patched = rst.Current()
	if Fingerprint(patched) != Fingerprint(to) {
		t.Fatal("patched snapshot fingerprint differs from the builder's target")
	}
	// The delta path must produce state byte-identical to a full pull.
	if string(EncodeFull(patched)) != string(full) {
		t.Fatal("patched snapshot does not re-encode byte-identical to a full transfer")
	}
	// Labels must be shared by pointer with the replica's base snapshot
	// so the serving pre-encoder's delta reuse keeps working downstream.
	if &patched.LabelsView()[0] != &bsnap.LabelsView()[0] {
		t.Fatal("patched snapshot does not share the base label backing array")
	}
}

func TestDeltaApplyRejectsMismatchedBase(t *testing.T) {
	base := testSnapshot(t, 32, 6, 3)
	next := perturb(t, base, 7, 0.1)
	st := server.NewStore(nil)
	if err := st.PublishExternal(next, 4); err != nil {
		t.Fatal(err)
	}
	payload := encDelta(base, st.Current())
	if payload == nil {
		t.Fatal("encodeDelta returned nil")
	}
	d, err := DecodeDelta(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong version: a snapshot at a different version must be refused.
	other := testSnapshot(t, 32, 6, 99)
	if _, err := applyDelta(d, other); !errors.Is(err, ErrFrame) {
		t.Fatalf("apply against wrong version: %v, want ErrFrame", err)
	}
	// Wrong meta: same version number but different labels.
	diverged := testSnapshot(t, 32, 999, 3)
	if _, err := applyDelta(d, diverged); !errors.Is(err, ErrFrame) {
		t.Fatalf("apply against diverged labels: %v, want ErrFrame", err)
	}
}

func TestDeltaDecodeRejectsTruncationAndPatchCorruption(t *testing.T) {
	base := testSnapshot(t, 40, 8, 1)
	next := perturb(t, base, 9, 0.15)
	st := server.NewStore(nil)
	if err := st.PublishExternal(next, 2); err != nil {
		t.Fatal(err)
	}
	to := st.Current()
	payload := encDelta(base, to)
	if payload == nil {
		t.Fatal("encodeDelta returned nil")
	}
	for cut := 0; cut < len(payload); cut++ {
		if _, err := DecodeDelta(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	// A corrupted patch value that still decodes structurally must be
	// caught by the post-patch CRC at apply time.
	d, err := DecodeDelta(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Algos) == 0 || len(d.Algos[0].Val) == 0 {
		t.Skip("no patches to corrupt")
	}
	d.Algos[0].Val[0] += 1e-12
	if _, err := applyDelta(d, base); !errors.Is(err, ErrFrame) {
		t.Fatalf("corrupted patch applied cleanly: %v", err)
	}
}

func TestEncodeDeltaDeclinesIncompatibleOrDense(t *testing.T) {
	base := testSnapshot(t, 30, 10, 1)
	// Diverged meta (different labels): no delta.
	diverged := testSnapshot(t, 30, 11, 2)
	if encDelta(base, diverged) != nil {
		t.Fatal("delta offered across diverged label sets")
	}
	// Different source count: no delta.
	bigger := testSnapshot(t, 31, 10, 2)
	if encDelta(base, bigger) != nil {
		t.Fatal("delta offered across different source counts")
	}
	// Nearly everything changed: full transfer is cheaper, so no delta.
	churned := perturb(t, base, 12, 1.0)
	st := server.NewStore(nil)
	if err := st.PublishExternal(churned, 2); err != nil {
		t.Fatal(err)
	}
	if encDelta(base, st.Current()) != nil {
		t.Fatal("delta offered when a full frame is smaller")
	}
	// It declines before encoding: no body is built only to be dropped.
	const n = 4000
	big := testSnapshot(t, n, 13, 1)
	st = server.NewStore(nil)
	if err := st.PublishExternal(perturb(t, big, 14, 1.0), 2); err != nil {
		t.Fatal(err)
	}
	to, fromMeta, toMeta := st.Current(), MetaCRC(big), MetaCRC(st.Current())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		if encodeDelta(big, to, fromMeta, toMeta) != nil {
			t.Fatal("delta offered when a full frame is smaller")
		}
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / 10; b > n {
		t.Errorf("declining a dense delta over %d sources allocated %d bytes, want under one byte a source", n, b)
	}
}
