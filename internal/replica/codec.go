// Package replica implements snapshot distribution for a serving fleet:
// a builder node publishes score snapshots and replicas pull them over
// the serving layer's ETag/If-None-Match machinery, verify the CRC
// frame from internal/durable on receipt, and hot-swap the decoded
// snapshot atomically into their local Store. The first sync transfers
// the full snapshot; thereafter the builder serves sparse score deltas
// keyed on the replica's advertised version, each carrying the CRC of
// the post-patch state so a replica proves its patched snapshot is
// byte-identical to a full pull before any reader can see it.
//
// Failure discipline mirrors the refresher: exponential backoff with
// jitter, per-attempt timeouts, consecutive-failure counters. A torn,
// truncated, or bit-flipped transfer is rejected wholesale — the
// previous snapshot keeps serving — and a replica past its staleness
// budget keeps answering (flagged X-Snapshot-Stale) while /healthz
// turns degraded so orchestration can route around it.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync/atomic"
	"time"

	"sourcerank/internal/linalg"
	"sourcerank/internal/server"
)

// Transfer frame payload layout (the payload durable.Frame wraps with
// its CRC trailer; all integers little-endian):
//
//	u32 magic "SRSN" | u8 wireVersion | u8 kind (full|delta)
//	full:  header | meta (labels, page counts) | per-algo scores+CRC
//	delta: u64 fromVersion | header | u32 metaCRC | per-algo sparse
//	       patches + post-patch full-vector CRC
//
// where header is version, parent, builtAt, corpus info, κ top-k.
const (
	frameMagic  = 0x5352534E // "SRSN"
	wireVersion = 1

	// KindFull and KindDelta name the two frame encodings.
	KindFull  byte = 0
	KindDelta byte = 1
)

// maxFrameSources bounds the source count a decoder will allocate for;
// matches the largest corpora the serving layer handles and keeps a
// corrupt length field from forcing a huge allocation.
const maxFrameSources = 1 << 28

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrFrame is the sentinel matched by errors.Is for every malformed or
// mismatched transfer frame this package rejects after the durable CRC
// trailer already passed (a structurally broken payload, an unexpected
// kind, a delta whose base or post-patch state does not line up).
var ErrFrame = errors.New("replica: bad transfer frame")

type frameError struct{ reason string }

func (e *frameError) Error() string        { return "replica: bad transfer frame: " + e.reason }
func (e *frameError) Is(target error) bool { return target == ErrFrame }

func badFrame(format string, args ...any) error {
	return &frameError{reason: fmt.Sprintf(format, args...)}
}

// AlgoScores is one algorithm's transferred state: the full score
// vector plus the solve provenance the builder recorded.
type AlgoScores struct {
	Algo      server.Algo
	Stats     linalg.IterStats
	SolveTime time.Duration
	Warm      bool
	Scores    linalg.Vector
}

// Full is a decoded full-snapshot frame.
type Full struct {
	Version   uint64
	Parent    uint64
	BuiltAt   time.Time
	Corpus    server.CorpusInfo
	KappaTopK int
	Labels    []string
	PageCount []int
	Algos     []AlgoScores
}

// AlgoPatch is one algorithm's sparse score update: set Scores[Idx[i]]
// = Val[i] over a clone of the base vector. FullCRC is the CRC32-C of
// the patched vector's canonical encoding — the proof obligation that
// the patched state is byte-identical to what a full pull would have
// transferred.
type AlgoPatch struct {
	Algo      server.Algo
	Stats     linalg.IterStats
	SolveTime time.Duration
	Warm      bool
	Idx       []int32
	Val       []float64
	FullCRC   uint32
}

// Delta is a decoded delta frame: the sparse difference between the
// snapshot at From and the one at Version, valid only when the
// receiver's meta state (labels, page counts) hashes to MetaCRC.
type Delta struct {
	From      uint64
	Version   uint64
	Parent    uint64
	BuiltAt   time.Time
	Corpus    server.CorpusInfo
	KappaTopK int
	MetaCRC   uint32
	Algos     []AlgoPatch
}

// FrameKind inspects a verified payload's envelope without decoding the
// body.
func FrameKind(payload []byte) (byte, error) {
	if len(payload) < 6 {
		return 0, badFrame("%d-byte payload is shorter than the envelope", len(payload))
	}
	if m := binary.LittleEndian.Uint32(payload[0:4]); m != frameMagic {
		return 0, badFrame("magic %#x, want %#x", m, frameMagic)
	}
	if v := payload[4]; v != wireVersion {
		return 0, badFrame("wire version %d, want %d", v, wireVersion)
	}
	kind := payload[5]
	if kind != KindFull && kind != KindDelta {
		return 0, badFrame("unknown frame kind %d", kind)
	}
	return kind, nil
}

// --- encode ---

type wbuf struct{ b []byte }

func (w *wbuf) u8(v byte)     { w.b = append(w.b, v) }
func (w *wbuf) u32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) i64(v int64)   { w.u64(uint64(v)) }
func (w *wbuf) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *wbuf) uvarint(v uint64) {
	w.b = binary.AppendUvarint(w.b, v)
}
func (w *wbuf) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}
func (w *wbuf) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *wbuf) header(kind byte, version, parent uint64, builtAt time.Time, corpus server.CorpusInfo, kappaTopK int) {
	w.u32(frameMagic)
	w.u8(wireVersion)
	w.u8(kind)
	w.u64(version)
	w.u64(parent)
	w.i64(builtAt.UnixNano())
	w.str(corpus.Name)
	w.u64(uint64(corpus.Pages))
	w.u64(uint64(corpus.Links))
	w.u64(uint64(corpus.SpamLabeled))
	w.uvarint(uint64(kappaTopK))
}

func (w *wbuf) solveInfo(stats linalg.IterStats, solveTime time.Duration, warm bool) {
	w.uvarint(uint64(stats.Iterations))
	w.f64(stats.Residual)
	w.boolean(stats.Converged)
	w.i64(int64(solveTime))
	w.boolean(warm)
}

// scoreCRC is the CRC32-C of a score vector's canonical wire encoding
// (8-byte little-endian float bits per entry) — the per-algorithm
// fingerprint that delta syncs are verified against.
func scoreCRC(v linalg.Vector) uint32 {
	var buf [4096]byte
	var crc uint32
	for len(v) > 0 {
		chunk := v[:min(len(v), len(buf)/8)]
		for i, f := range chunk {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(f))
		}
		crc = crc32.Update(crc, castagnoli, buf[:len(chunk)*8])
		v = v[len(chunk):]
	}
	return crc
}

// MetaCRC fingerprints the snapshot state a delta cannot patch: the
// label set and per-source page counts. A delta is only applicable when
// sender and receiver agree on it; any divergence (recrawl, corpus
// swap) forces a full transfer.
func MetaCRC(snap *server.Snapshot) uint32 {
	var w wbuf
	w.meta(snap)
	return crc32.Checksum(w.b, castagnoli)
}

// meta appends the canonical encoding of snap's labels and page counts:
// the meta section of a full frame, and the bytes MetaCRC fingerprints.
func (w *wbuf) meta(snap *server.Snapshot) {
	labels := snap.LabelsView()
	w.uvarint(uint64(len(labels)))
	for _, l := range labels {
		w.str(l)
	}
	pages := snap.PageCountsView()
	w.uvarint(uint64(len(pages)))
	for _, p := range pages {
		w.uvarint(uint64(p))
	}
}

// metaMemo remembers the MetaCRC of the last meta state it was asked
// about. Snapshots are immutable and a delta-compatible successor holds
// its predecessor's very label and page-count arrays, so along a lineage
// the labels are serialised once, not once per encode and per sync. Safe
// for concurrent use.
type metaMemo struct {
	last atomic.Pointer[metaEntry]
}

type metaEntry struct {
	labels []string
	pages  []int
	crc    uint32
}

func (m *metaMemo) crc(snap *server.Snapshot) uint32 {
	labels, pages := snap.LabelsView(), snap.PageCountsView()
	if e := m.last.Load(); e != nil && server.SameArray(labels, e.labels) && server.SameArray(pages, e.pages) {
		return e.crc
	}
	e := &metaEntry{labels: labels, pages: pages, crc: MetaCRC(snap)}
	m.last.Store(e)
	return e.crc
}

// EncodeFull renders snap as a full transfer frame payload (without the
// durable trailer; see durable.Frame). The encoding is deterministic —
// algorithms in sorted order, fixed-width scores — so two encodings of
// identical snapshot state are byte-identical, which the fleet
// consistency tests rely on to compare replica state against a full
// pull.
func EncodeFull(snap *server.Snapshot) []byte {
	var w wbuf
	w.header(KindFull, snap.Version(), snap.ParentVersion(), snap.BuiltAt(), snap.Corpus(), snap.KappaTopK())
	w.meta(snap)
	algos := snap.Algos()
	w.u8(byte(len(algos)))
	for _, algo := range algos {
		ss := snap.Set(algo)
		w.str(string(algo))
		w.solveInfo(ss.Stats(), ss.SolveTime(), ss.WarmStarted())
		scores := ss.ScoresView()
		for _, f := range scores {
			w.f64(f)
		}
		w.u32(scoreCRC(scores))
	}
	return w.b
}

// encodeDelta renders the sparse difference that turns from's state
// into to's as a delta frame payload, given both snapshots' MetaCRC (the
// publisher keeps one per ring entry instead of re-serialising every
// label on each encode). It returns nil when a delta is not applicable or
// not worthwhile: mismatched meta state, different algorithm sets or
// source counts, or so many changed scores that a full frame would be
// smaller.
func encodeDelta(from, to *server.Snapshot, fromMeta, toMeta uint32) []byte {
	if from.NumSources() != to.NumSources() || fromMeta != toMeta {
		return nil
	}
	fromAlgos, toAlgos := from.Algos(), to.Algos()
	if len(fromAlgos) != len(toAlgos) {
		return nil
	}
	for i := range toAlgos {
		if fromAlgos[i] != toAlgos[i] {
			return nil
		}
	}
	// A patch entry costs 12 bytes against 8 for a dense score; past
	// half the corpus changing, the full frame is both smaller and
	// simpler to apply. Count before encoding, so a dense diff costs no
	// body.
	n := to.NumSources()
	changed := make([]int, len(toAlgos))
	totalChanged := 0
	for a, algo := range toAlgos {
		fs, ts := from.Set(algo).ScoresView(), to.Set(algo).ScoresView()
		for i := range ts {
			if math.Float64bits(ts[i]) != math.Float64bits(fs[i]) {
				changed[a]++
			}
		}
		totalChanged += changed[a]
	}
	if totalChanged*2 > n*len(toAlgos) {
		return nil
	}
	var w wbuf
	w.u32(frameMagic)
	w.u8(wireVersion)
	w.u8(KindDelta)
	w.u64(from.Version())
	w.u64(to.Version())
	w.u64(to.ParentVersion())
	w.i64(to.BuiltAt().UnixNano())
	w.str(to.Corpus().Name)
	w.u64(uint64(to.Corpus().Pages))
	w.u64(uint64(to.Corpus().Links))
	w.u64(uint64(to.Corpus().SpamLabeled))
	w.uvarint(uint64(to.KappaTopK()))
	w.u32(toMeta)
	w.u8(byte(len(toAlgos)))
	for a, algo := range toAlgos {
		fs, ts := from.Set(algo).ScoresView(), to.Set(algo).ScoresView()
		w.str(string(algo))
		tss := to.Set(algo)
		w.solveInfo(tss.Stats(), tss.SolveTime(), tss.WarmStarted())
		w.uvarint(uint64(changed[a]))
		for i := range ts {
			if math.Float64bits(ts[i]) != math.Float64bits(fs[i]) {
				w.u32(uint32(i))
				w.f64(ts[i])
			}
		}
		w.u32(scoreCRC(ts))
	}
	return w.b
}

// --- decode ---

type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail(format string, args ...any) {
	if r.err == nil {
		r.err = badFrame("at offset %d: %s", r.off, fmt.Sprintf(format, args...))
	}
}

func (r *rbuf) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.fail("need %d bytes, have %d", n, len(r.b)-r.off)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *rbuf) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *rbuf) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *rbuf) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *rbuf) i64() int64   { return int64(r.u64()) }
func (r *rbuf) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *rbuf) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// count reads a length field and bounds it both by a hard cap and by
// the bytes that could possibly remain (each element needs at least min
// bytes), so corrupt lengths cannot force huge allocations.
func (r *rbuf) count(cap uint64, min int, what string) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > cap || (min > 0 && v > uint64((len(r.b)-r.off)/min)+1) {
		r.fail("implausible %s count %d", what, v)
		return 0
	}
	return int(v)
}

func (r *rbuf) str() string {
	n := r.count(uint64(len(r.b)), 1, "string byte")
	if r.err != nil {
		return ""
	}
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func (r *rbuf) boolean() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bad boolean")
		return false
	}
}

func (r *rbuf) solveInfo() (linalg.IterStats, time.Duration, bool) {
	var st linalg.IterStats
	it := r.uvarint()
	if it > 1<<32 {
		r.fail("implausible iteration count %d", it)
	}
	st.Iterations = int(it)
	st.Residual = r.f64()
	st.Converged = r.boolean()
	d := time.Duration(r.i64())
	warm := r.boolean()
	return st, d, warm
}

func (r *rbuf) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return badFrame("%d trailing bytes after frame body", len(r.b)-r.off)
	}
	return nil
}

// envelope consumes and checks magic/version/kind.
func (r *rbuf) envelope(wantKind byte) {
	if m := r.u32(); r.err == nil && m != frameMagic {
		r.fail("magic %#x", m)
	}
	if v := r.u8(); r.err == nil && v != wireVersion {
		r.fail("wire version %d", v)
	}
	if k := r.u8(); r.err == nil && k != wantKind {
		r.fail("frame kind %d, want %d", k, wantKind)
	}
}

// DecodeFull decodes a full frame payload. The payload must already
// have passed durable.Verify; decoding still bounds every allocation
// and never panics on arbitrary bytes.
func DecodeFull(payload []byte) (*Full, error) {
	r := &rbuf{b: payload}
	r.envelope(KindFull)
	f := &Full{}
	f.Version = r.u64()
	f.Parent = r.u64()
	f.BuiltAt = time.Unix(0, r.i64())
	f.Corpus.Name = r.str()
	f.Corpus.Pages = int(r.u64())
	f.Corpus.Links = int64(r.u64())
	f.Corpus.SpamLabeled = int(r.u64())
	f.KappaTopK = int(r.uvarint())
	nLabels := r.count(maxFrameSources, 1, "label")
	if r.err != nil {
		return nil, r.err
	}
	f.Labels = make([]string, nLabels)
	for i := range f.Labels {
		f.Labels[i] = r.str()
	}
	nPages := r.count(maxFrameSources, 1, "page count")
	if r.err != nil {
		return nil, r.err
	}
	f.PageCount = make([]int, nPages)
	for i := range f.PageCount {
		f.PageCount[i] = int(r.uvarint())
	}
	nAlgos := int(r.u8())
	for i := 0; i < nAlgos && r.err == nil; i++ {
		var as AlgoScores
		as.Algo = server.Algo(r.str())
		as.Stats, as.SolveTime, as.Warm = r.solveInfo()
		if len(r.b)-r.off < nLabels*8 {
			r.fail("scores for %q truncated", as.Algo)
			break
		}
		as.Scores = make(linalg.Vector, nLabels)
		for j := range as.Scores {
			as.Scores[j] = r.f64()
		}
		if want := r.u32(); r.err == nil && scoreCRC(as.Scores) != want {
			r.fail("score CRC mismatch for %q", as.Algo)
		}
		f.Algos = append(f.Algos, as)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	f.Corpus.Sources = nLabels
	return f, nil
}

// DecodeDelta decodes a delta frame payload (same contract as
// DecodeFull).
func DecodeDelta(payload []byte) (*Delta, error) {
	r := &rbuf{b: payload}
	r.envelope(KindDelta)
	d := &Delta{}
	d.From = r.u64()
	d.Version = r.u64()
	d.Parent = r.u64()
	d.BuiltAt = time.Unix(0, r.i64())
	d.Corpus.Name = r.str()
	d.Corpus.Pages = int(r.u64())
	d.Corpus.Links = int64(r.u64())
	d.Corpus.SpamLabeled = int(r.u64())
	d.KappaTopK = int(r.uvarint())
	d.MetaCRC = r.u32()
	nAlgos := int(r.u8())
	for i := 0; i < nAlgos && r.err == nil; i++ {
		var ap AlgoPatch
		ap.Algo = server.Algo(r.str())
		ap.Stats, ap.SolveTime, ap.Warm = r.solveInfo()
		nChanges := r.count(maxFrameSources, 12, "patch")
		if r.err != nil {
			break
		}
		ap.Idx = make([]int32, nChanges)
		ap.Val = make([]float64, nChanges)
		for j := 0; j < nChanges; j++ {
			ap.Idx[j] = int32(r.u32())
			ap.Val[j] = r.f64()
		}
		ap.FullCRC = r.u32()
		d.Algos = append(d.Algos, ap)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return d, nil
}

// Snapshot reconstructs a servable snapshot from a decoded full frame.
// The frame's version travels separately (Store.PublishExternal assigns
// it at publish time).
func (f *Full) Snapshot() (*server.Snapshot, error) {
	sets := make(map[server.Algo]*server.ScoreSet, len(f.Algos))
	for _, as := range f.Algos {
		if len(as.Scores) != len(f.Labels) {
			return nil, badFrame("%q carries %d scores for %d sources", as.Algo, len(as.Scores), len(f.Labels))
		}
		if _, dup := sets[as.Algo]; dup {
			return nil, badFrame("duplicate algorithm %q", as.Algo)
		}
		sets[as.Algo] = server.NewScoreSetSolved(as.Scores, as.Stats, as.SolveTime, as.Warm)
	}
	return server.NewSnapshot(f.Corpus, f.Labels, f.PageCount, f.KappaTopK, sets, f.BuiltAt)
}

// apply patches base's state into the snapshot at d.Version, given
// base's MetaCRC (see metaMemo). Labels and page counts are shared with
// base (they are immutable and MetaCRC proved them unchanged), and so is
// the score vector of every algorithm whose patch is empty — shared
// counts those — which lets the publish that follows carry that
// algorithm's index and rendered responses over instead of rebuilding
// them; a patched algorithm's vector is cloned and patched. Shared or
// cloned, every vector is verified against the frame's post-patch CRC, so
// a verified result is byte-identical to what a full transfer of
// d.Version would have produced. Any mismatch returns an error wrapping
// ErrFrame and the base snapshot is left untouched.
func (d *Delta) apply(base *server.Snapshot, baseMeta uint32) (snap *server.Snapshot, shared int, err error) {
	if base.Version() != d.From {
		return nil, 0, badFrame("delta from version %d against base version %d", d.From, base.Version())
	}
	if baseMeta != d.MetaCRC {
		return nil, 0, badFrame("meta CRC mismatch: base labels/page counts diverged from builder")
	}
	baseAlgos := base.Algos()
	if len(baseAlgos) != len(d.Algos) {
		return nil, 0, badFrame("delta carries %d algorithms, base has %d", len(d.Algos), len(baseAlgos))
	}
	n := base.NumSources()
	sets := make(map[server.Algo]*server.ScoreSet, len(d.Algos))
	for i, ap := range d.Algos {
		if baseAlgos[i] != ap.Algo {
			return nil, 0, badFrame("delta algorithm %q, base has %q", ap.Algo, baseAlgos[i])
		}
		scores := base.Set(ap.Algo).ScoresView()
		if len(ap.Idx) == 0 {
			shared++
		} else {
			scores = append(linalg.Vector(nil), scores...)
			for j, idx := range ap.Idx {
				if idx < 0 || int(idx) >= n {
					return nil, 0, badFrame("%q patch index %d out of range [0,%d)", ap.Algo, idx, n)
				}
				scores[idx] = ap.Val[j]
			}
		}
		if got := scoreCRC(scores); got != ap.FullCRC {
			return nil, 0, badFrame("%q post-patch CRC %#x, builder says %#x: patched state is not byte-identical to a full pull", ap.Algo, got, ap.FullCRC)
		}
		sets[ap.Algo] = server.NewScoreSetSolved(scores, ap.Stats, ap.SolveTime, ap.Warm)
	}
	snap, err = server.NewSnapshot(d.Corpus, base.LabelsView(), base.PageCountsView(), d.KappaTopK, sets, d.BuiltAt)
	return snap, shared, err
}

// Fingerprint hashes the served state of a snapshot — labels, page
// counts, κ, and every algorithm's scores — ignoring version lineage
// and build timestamps. Two snapshots with equal fingerprints serve
// byte-identical rankings; the fleet tests assert every replica's
// fingerprint matches the builder's for the version it reports.
func Fingerprint(snap *server.Snapshot) uint64 {
	var w wbuf
	w.u32(MetaCRC(snap))
	w.uvarint(uint64(snap.KappaTopK()))
	for _, algo := range snap.Algos() {
		w.str(string(algo))
		w.u32(scoreCRC(snap.Set(algo).ScoresView()))
	}
	lo := crc32.Checksum(w.b, castagnoli)
	hi := crc32.ChecksumIEEE(w.b)
	return uint64(hi)<<32 | uint64(lo)
}
