// Package replica implements snapshot distribution for a serving fleet:
// a builder node publishes score snapshots and replicas pull them over
// the serving layer's ETag/If-None-Match machinery, verify the CRC
// frame from internal/durable on receipt, and hot-swap the decoded
// snapshot atomically into their local Store. A transfer is one frame:
// per-algorithm sections over an optional base. The first sync has no
// base and carries every label and score; thereafter the builder encodes
// over the replica's advertised version, so labels and page counts are
// never resent and each algorithm ships as sparse patches or a dense
// vector, whichever is smaller. Every section carries the CRC of the
// resulting vector, so a replica proves its snapshot is byte-identical
// to a base-less pull before any reader can see it.
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
	"slices"
	"sync/atomic"
	"time"

	"sourcerank/internal/linalg"
	"sourcerank/internal/server"
)

// Transfer frame payload layout (the payload durable.Frame wraps with
// its CRC trailer; all integers little-endian):
//
//	u32 magic "SRSN" | u8 wireVersion
//	u64 version | u64 parent | i64 builtAt | corpus | uvarint κ top-k
//	u64 from | uvarint n (sources)
//	  from == 0: n labels | n page counts
//	  from != 0: u32 metaCRC of the base's labels and page counts
//	u8 algorithms, then per algorithm: name | solve info | u8 kind |
//	  patches: uvarint k | k × (u32 index, f64 value) over the base's vector
//	  dense:   n × f64
//	  | u32 CRC-32C of the resulting vector
//
// A builder and its replicas must run the same wireVersion: a frame of
// any other version is rejected as ErrFrame.
const (
	frameMagic  = 0x5352534E // "SRSN"
	wireVersion = 2

	sectionPatches byte = 0
	sectionDense   byte = 1
)

// maxFrameSources bounds the source count a decoder will allocate for;
// matches the largest corpora the serving layer handles and keeps a
// corrupt length field from forcing a huge allocation.
const maxFrameSources = 1 << 28

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrFrame is the sentinel matched by errors.Is for every malformed or
// mismatched transfer frame this package rejects after the durable CRC
// trailer already passed (a structurally broken payload, another wire
// version, a frame whose base or resulting state does not line up).
var ErrFrame = errors.New("replica: bad transfer frame")

type frameError struct{ reason string }

func (e *frameError) Error() string        { return "replica: bad transfer frame: " + e.reason }
func (e *frameError) Is(target error) bool { return target == ErrFrame }

func badFrame(format string, args ...any) error {
	return &frameError{reason: fmt.Sprintf(format, args...)}
}

// frame is a decoded transfer frame. With from == 0 it carries labels
// and page counts and every section is dense; otherwise it applies only
// over the snapshot at from whose meta hashes to metaCRC.
type frame struct {
	version, parent, from uint64
	builtAt               time.Time
	corpus                server.CorpusInfo
	kappaTopK             int
	n                     int
	metaCRC               uint32
	labels                []string
	pageCount             []int
	sections              []section
}

// section is one algorithm's state: its solve provenance, a dense vector
// or patches (set scores[idx[i]] = val[i] over a clone of the base's
// vector; none means the base's vector itself), and crc, the CRC-32C of
// the resulting vector.
type section struct {
	algo      server.Algo
	stats     linalg.IterStats
	solveTime time.Duration
	warm      bool
	kind      byte
	dense     linalg.Vector
	idx       []int32
	val       []float64
	crc       uint32
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

func (w *wbuf) solveInfo(stats linalg.IterStats, solveTime time.Duration, warm bool) {
	w.uvarint(uint64(stats.Iterations))
	w.f64(stats.Residual)
	w.boolean(stats.Converged)
	w.i64(int64(solveTime))
	w.boolean(warm)
}

// scoreCRC is the CRC32-C of a score vector's canonical wire encoding
// (8-byte little-endian float bits per entry) — the per-algorithm
// fingerprint every section is verified against.
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

// metaCRC fingerprints the snapshot state a frame over a base never
// carries: the source count, labels and per-source page counts. Sender
// and receiver must agree on it; any divergence (recrawl, corpus swap)
// forces a frame with no base.
func metaCRC(snap *server.Snapshot) uint32 {
	var w wbuf
	w.meta(snap)
	return crc32.Checksum(w.b, castagnoli)
}

// meta appends the canonical encoding of snap's meta: one source count,
// then that many labels and page counts. It is the meta section of a
// frame with no base, and the bytes metaCRC fingerprints.
func (w *wbuf) meta(snap *server.Snapshot) {
	labels, pages := snap.LabelsView(), snap.PageCountsView()
	w.uvarint(uint64(len(labels)))
	for _, l := range labels {
		w.str(l)
	}
	for _, p := range pages {
		w.uvarint(uint64(p))
	}
}

// metaMemo remembers the metaCRC of the last meta state it was asked
// about. Snapshots are immutable and a successor that keeps the meta
// holds its predecessor's very label and page-count arrays, so along a
// lineage the labels are serialised once, not once per encode and per
// sync. Safe for concurrent use.
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
	e := &metaEntry{labels: labels, pages: pages, crc: metaCRC(snap)}
	m.last.Store(e)
	return e.crc
}

// entry is a snapshot with its metaCRC, computed once when the publisher
// observes it.
type entry struct {
	snap *server.Snapshot
	meta uint32
}

// carries reports whether a frame over base can express cur: the same
// meta, source count and algorithm set.
func (base *entry) carries(cur *entry) bool {
	return base.meta == cur.meta && base.snap.NumSources() == cur.snap.NumSources() &&
		slices.Equal(base.snap.Algos(), cur.snap.Algos())
}

// encode renders cur as a frame payload (without the durable trailer;
// see durable.Frame) over base, which is nil or carries cur. With no
// base the frame holds the meta and a dense vector per algorithm; over a
// base it holds the base's metaCRC, and each algorithm goes as patches
// while those are smaller than its dense vector (see patchCount). The
// encoding is deterministic — algorithms in sorted order, fixed-width
// scores — so two encodings of identical state are byte-identical.
func encode(base, cur *entry) []byte {
	snap := cur.snap
	var w wbuf
	w.u32(frameMagic)
	w.u8(wireVersion)
	w.u64(snap.Version())
	w.u64(snap.ParentVersion())
	w.i64(snap.BuiltAt().UnixNano())
	corpus := snap.Corpus()
	w.str(corpus.Name)
	w.u64(uint64(corpus.Pages))
	w.u64(uint64(corpus.Links))
	w.u64(uint64(corpus.SpamLabeled))
	w.uvarint(uint64(snap.KappaTopK()))
	if base == nil {
		w.u64(0)
		w.meta(snap)
	} else {
		w.u64(base.snap.Version())
		w.uvarint(uint64(snap.NumSources()))
		w.u32(cur.meta)
	}
	algos := snap.Algos()
	w.u8(byte(len(algos)))
	for _, algo := range algos {
		ss := snap.Set(algo)
		scores := ss.ScoresView()
		w.str(string(algo))
		w.solveInfo(ss.Stats(), ss.SolveTime(), ss.WarmStarted())
		var old linalg.Vector
		if base != nil {
			old = base.snap.Set(algo).ScoresView()
		}
		if k, ok := patchCount(old, scores); ok {
			w.u8(sectionPatches)
			w.uvarint(uint64(k))
			for i, f := range scores {
				if math.Float64bits(f) != math.Float64bits(old[i]) {
					w.u32(uint32(i))
					w.f64(f)
				}
			}
		} else {
			w.u8(sectionDense)
			for _, f := range scores {
				w.f64(f)
			}
		}
		w.u32(scoreCRC(scores))
	}
	return w.b
}

// patchCount counts the entries of cur whose bits differ from old and
// reports whether they are cheaper as 12-byte patches than cur is as an
// 8-byte-a-source dense vector: 12·k < 8·n, or k = 0. It stops counting
// as soon as they are not. With no old vector they never are.
func patchCount(old, cur linalg.Vector) (k int, cheaper bool) {
	if old == nil {
		return 0, false
	}
	for i, f := range cur {
		if math.Float64bits(f) != math.Float64bits(old[i]) {
			if k++; 12*k >= 8*len(cur) {
				return k, false
			}
		}
	}
	return k, true
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

// labels reads n length-prefixed strings in two allocations: the slice
// and one string, the run they span copied once, of which every label is
// a substring. The first pass checks each length against the bytes
// present; the second re-reads the checked prefixes.
func (r *rbuf) labels(n int) []string {
	start := r.off
	for i := 0; i < n && r.err == nil; i++ {
		r.take(r.count(uint64(len(r.b)), 1, "string byte"))
	}
	if r.err != nil {
		return nil
	}
	run := string(r.b[start:r.off])
	labels := make([]string, n)
	for i, at := 0, 0; i < n; i++ {
		l, k := binary.Uvarint(r.b[start+at:])
		at += k
		labels[i] = run[at : at+int(l)]
		at += int(l)
	}
	return labels
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

// decode decodes a frame payload. The payload must already have passed
// durable.Verify; decoding still bounds every allocation by the bytes
// present and never panics on arbitrary bytes.
func decode(payload []byte) (*frame, error) {
	r := &rbuf{b: payload}
	if m := r.u32(); r.err == nil && m != frameMagic {
		r.fail("magic %#x", m)
	}
	if v := r.u8(); r.err == nil && v != wireVersion {
		r.fail("wire version %d, want %d", v, wireVersion)
	}
	f := &frame{}
	f.version = r.u64()
	f.parent = r.u64()
	f.builtAt = time.Unix(0, r.i64())
	f.corpus.Name = r.str()
	f.corpus.Pages = int(r.u64())
	f.corpus.Links = int64(r.u64())
	f.corpus.SpamLabeled = int(r.u64())
	f.kappaTopK = int(r.uvarint())
	f.from = r.u64()
	if f.from == 0 {
		// A label and a page count take at least a byte each.
		f.n = r.count(maxFrameSources, 2, "source")
		if r.err != nil {
			return nil, r.err
		}
		f.labels = r.labels(f.n)
		f.pageCount = make([]int, f.n)
		for i := range f.pageCount {
			f.pageCount[i] = int(r.uvarint())
		}
	} else {
		f.n = r.count(maxFrameSources, 0, "source")
		f.metaCRC = r.u32()
	}
	nAlgos := int(r.u8())
	for i := 0; i < nAlgos && r.err == nil; i++ {
		s := section{algo: server.Algo(r.str())}
		s.stats, s.solveTime, s.warm = r.solveInfo()
		switch s.kind = r.u8(); s.kind {
		case sectionPatches:
			k := r.count(uint64(f.n), 12, "patch")
			if r.err != nil {
				break
			}
			s.idx, s.val = make([]int32, k), make([]float64, k)
			for j := range s.idx {
				s.idx[j] = int32(r.u32())
				s.val[j] = r.f64()
			}
		case sectionDense:
			if len(r.b)-r.off < f.n*8 {
				r.fail("dense %q truncated", s.algo)
				break
			}
			s.dense = make(linalg.Vector, f.n)
			for j := range s.dense {
				s.dense[j] = r.f64()
			}
		default:
			r.fail("section kind %d", s.kind)
		}
		s.crc = r.u32()
		f.sections = append(f.sections, s)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, badFrame("%d trailing bytes after frame body", len(r.b)-r.off)
	}
	return f, nil
}

// apply builds the snapshot f describes. With no base in the frame it
// stands alone; otherwise base must be the snapshot at f.from, whose
// metaCRC (see metaMemo) is baseMeta. Over a base, labels and page counts
// are base's arrays (immutable, and metaCRC proved them unchanged), and
// so is the score vector of every algorithm with an empty patch — shared
// counts those — which lets the publish that follows carry that
// algorithm's index and rendered responses over instead of rebuilding
// them; a patched vector is a clone of base's, and a dense one the
// frame's own. Every vector is verified against its section's CRC, so a
// verified result is byte-identical to what a frame with no base would
// have produced. Any mismatch returns an error wrapping ErrFrame and
// base is left untouched.
func (f *frame) apply(base *server.Snapshot, baseMeta uint32) (snap *server.Snapshot, shared int, err error) {
	labels, pages := f.labels, f.pageCount
	var baseAlgos []server.Algo
	if f.from != 0 {
		switch {
		case base == nil:
			return nil, 0, badFrame("frame over version %d received with no local snapshot", f.from)
		case base.Version() != f.from:
			return nil, 0, badFrame("frame over version %d against base version %d", f.from, base.Version())
		case baseMeta != f.metaCRC || base.NumSources() != f.n:
			return nil, 0, badFrame("meta CRC mismatch: base labels/page counts diverged from builder")
		}
		labels, pages, baseAlgos = base.LabelsView(), base.PageCountsView(), base.Algos()
		if len(baseAlgos) != len(f.sections) {
			return nil, 0, badFrame("frame carries %d algorithms, base has %d", len(f.sections), len(baseAlgos))
		}
	}
	sets := make(map[server.Algo]*server.ScoreSet, len(f.sections))
	for i, s := range f.sections {
		if _, dup := sets[s.algo]; dup {
			return nil, 0, badFrame("duplicate algorithm %q", s.algo)
		}
		if f.from != 0 && baseAlgos[i] != s.algo {
			return nil, 0, badFrame("frame algorithm %q, base has %q", s.algo, baseAlgos[i])
		}
		scores := s.dense
		if s.kind == sectionPatches {
			if f.from == 0 {
				return nil, 0, badFrame("%q patches a frame with no base", s.algo)
			}
			scores = base.Set(s.algo).ScoresView()
			if len(s.idx) == 0 {
				shared++
			} else {
				scores = append(linalg.Vector(nil), scores...)
				for j, idx := range s.idx {
					if idx < 0 || int(idx) >= f.n {
						return nil, 0, badFrame("%q patch index %d out of range [0,%d)", s.algo, idx, f.n)
					}
					scores[idx] = s.val[j]
				}
			}
		}
		if got := scoreCRC(scores); got != s.crc {
			return nil, 0, badFrame("%q CRC %#x, builder says %#x: the state is not byte-identical to the builder's", s.algo, got, s.crc)
		}
		sets[s.algo] = server.NewScoreSetSolved(scores, s.stats, s.solveTime, s.warm)
	}
	snap, err = server.NewSnapshot(f.corpus, labels, pages, f.kappaTopK, sets, f.builtAt)
	return snap, shared, err
}

// Fingerprint hashes the served state of a snapshot — labels, page
// counts, κ, and every algorithm's scores — ignoring version lineage
// and build timestamps. Two snapshots with equal fingerprints serve
// byte-identical rankings; the fleet tests assert every replica's
// fingerprint matches the builder's for the version it reports.
func Fingerprint(snap *server.Snapshot) uint64 {
	var w wbuf
	w.u32(metaCRC(snap))
	w.uvarint(uint64(snap.KappaTopK()))
	for _, algo := range snap.Algos() {
		w.str(string(algo))
		w.u32(scoreCRC(snap.Set(algo).ScoresView()))
	}
	lo := crc32.Checksum(w.b, castagnoli)
	hi := crc32.ChecksumIEEE(w.b)
	return uint64(hi)<<32 | uint64(lo)
}
