package server

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
)

// maxTopK caps the n accepted by /v1/topk; larger requests are clamped
// and flagged with an X-TopK-Clamped header.
const maxTopK = 10000

// maxRankCacheSources bounds the per-source /v1/rank pre-render. A
// fragment costs ~100 bytes per source per algorithm, so this cap keeps
// the cache to a few tens of MB on the largest corpora; sources beyond
// it (or snapshots above it entirely) are served by the encoder
// fallback, which produces byte-identical output.
const maxRankCacheSources = 1 << 17

// Pre-assigned header values: assigning an existing []string into the
// header map does not allocate, unlike Header.Set which builds a fresh
// one-element slice per call. Keys are in canonical MIME form.
var jsonContentType = []string{"application/json"}

// respCache is the per-snapshot set of pre-encoded response bodies.
// Everything here is computed once per publish and immutable afterwards,
// so the serving hot path performs zero marshaling and zero allocation
// between publishes.
type respCache struct {
	etag    string   // strong ETag keyed on the snapshot version, e.g. `"v42"`
	etagHdr []string // ready-to-assign header value holding etag
	topk    map[Algo]*topkCache
	rank    map[Algo]*rankCache
	meta    []byte // full /v1/snapshot body
	// labels holds the per-source escaped label bytes the renderers
	// append, retained so the next publish in the lineage can reuse them
	// (see labelCacheFor).
	labels *labelCache
	digits *textArena // 0..NumSources, every n a top-k cache serves
}

// Fixed byte fragments of the /v1/topk document surrounding the
// variable parts (the effective n and the entry prefix).
var (
	topkNMarker  = []byte("\n  \"n\": ")
	topkMid      = []byte(",\n  \"results\": [")
	topkTail     = []byte("\n  ]\n}\n")
	topkZeroTail = []byte(",\n  \"results\": []\n}\n")
	entryClose   = []byte("\n    }")
	rankMarker   = []byte(`"source": `)
)

// topkCache holds one algorithm's fully-encoded top-K payload. The
// entries region is the comma-joined encoding of the top max() entries;
// ends[i] is the offset just past entry i's closing brace, so a request
// for any n <= max() is served by slicing a prefix and appending the
// constant tail — no per-request encoding.
type topkCache struct {
	head    []byte // document start through `"n": ` (version and algo baked in)
	entries []byte // `\n    {...},\n    {...}` — no surrounding brackets
	ends    []int
}

func (c *topkCache) max() int { return len(c.ends) }

func (c *topkCache) writeTo(w io.Writer, n int, digits *textArena) {
	w.Write(c.head)
	w.Write(digits.at(n))
	if n == 0 {
		w.Write(topkZeroTail)
		return
	}
	w.Write(topkMid)
	w.Write(c.entries[:c.ends[n-1]])
	w.Write(topkTail)
}

// rankCache holds one algorithm's per-source /v1/rank fragments in a
// single backing slice (one big allocation, not one per source).
type rankCache struct {
	head  []byte // document start through the shared `"algo"` line
	frags []byte
	offs  []int32 // len = numSources+1
}

func (c *rankCache) numSources() int { return len(c.offs) - 1 }

func (c *rankCache) writeTo(w io.Writer, id int32) {
	w.Write(c.head)
	w.Write(c.frags[c.offs[id]:c.offs[id+1]])
}

// encodeIndented renders v exactly as writeJSON does (two-space indent,
// HTML escaping on, trailing newline), into buf. The returned slice
// aliases buf's storage.
func encodeIndented(buf *bytes.Buffer, v any) ([]byte, error) {
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// publishOutcome names what a publish did with one score set.
type publishOutcome int

const (
	// setReused: scores, labels and page counts were the outgoing
	// snapshot's arrays, so index and fragments were carried over.
	setReused publishOutcome = iota
	// setRendered: the set was indexed and rendered by this publish.
	setRendered
	// setUncached: a renderer dropped its cache, so the handlers encode
	// this set per request.
	setUncached
	numPublishOutcomes
)

var publishOutcomeNames = [numPublishOutcomes]string{"reused", "rendered", "uncached"}

// SameArray reports pointer identity of two slices' backing arrays — the
// witness, for immutable snapshot inputs, that one was carried over from
// the other unchanged, and so that whatever was derived from one holds
// for the other.
func SameArray[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// finalize resolves this snapshot's indexes and pre-encodes its hot-path
// response bodies. Store.Publish calls it after assigning the version and
// before the snapshot pointer is swapped in, so readers only ever observe
// a fully built cache. publishes is the store's publish counter as of
// this publish (what Store.Publishes reports while this snapshot is
// current, so the cached /v1/snapshot body equals the fallback's); prev
// is the outgoing snapshot, nil on the first publish; scores is the
// store's scratch arena. It returns how many score sets met each outcome.
//
// One rule, decided here and nowhere else: an input that is prev's very
// array carries everything derived from it. Shared labels carry the
// label map and the escaped-label bytes; a shared score vector carries
// its rank index; and when labels (for /v1/rank, page counts too) are
// shared as well, it carries the rendered entries and fragments, leaving
// only the version-bearing heads to encode. So a publish costs the heads
// plus one index-and-render per algorithm whose vector changed — the
// first publish of a lineage included, where that is every algorithm.
//
// Everything else is rendered by cache_delta.go, defensively: heads come
// from the encoder, one entry per document kind is probed against an
// encoder rendering, and on any mismatch that piece of the cache is
// dropped so handlers fall back to per-request encoding. The golden
// tests assert cached bytes equal the fallback on every kind of publish.
func (s *Snapshot) finalize(prev *Snapshot, publishes uint64, scores *textArena) (outcomes [numPublishOutcomes]int) {
	c := &respCache{
		etag: `"v` + strconv.FormatUint(s.version, 10) + `"`,
		topk: make(map[Algo]*topkCache, len(s.sets)),
		rank: make(map[Algo]*rankCache, len(s.sets)),
	}
	c.etagHdr = []string{c.etag}
	var buf bytes.Buffer
	old := &respCache{} // prev's cache; empty when there is nothing to carry
	var sameLabels, samePages bool
	if prev != nil {
		sameLabels = SameArray(s.labels, prev.labels)
		samePages = SameArray(s.pageCount, prev.pageCount)
		if prev.resp != nil {
			old = prev.resp
		}
	}
	if sameLabels {
		s.shareLabelIndex(prev)
	}
	s.labelIndex()
	c.labels = labelCacheFor(s.labels, old.labels)
	n := s.NumSources()
	if c.digits = old.digits; c.digits == nil || len(c.digits.offs) != n+2 {
		c.digits = decimals(n)
	}
	for _, algo := range s.Algos() {
		ss := s.sets[algo]
		sameScores := false
		if prev != nil {
			if pss := prev.sets[algo]; pss != nil && SameArray(ss.scores, pss.scores) {
				sameScores = true
				ss.shareIndex(pss)
			}
		}
		order, _ := ss.index()
		var fromTopK *topkCache
		var fromRank *rankCache
		if sameScores && sameLabels {
			fromTopK = old.topk[algo]
			if samePages {
				fromRank = old.rank[algo]
			}
		}
		wantRank := n > 0 && n <= maxRankCacheSources
		switch {
		case wantRank && fromRank == nil:
			scores.formatScores(ss.scores, order, n)
		case fromTopK == nil:
			scores.formatScores(ss.scores, order, min(n, maxTopK))
		}
		tc := s.renderTopK(&buf, algo, c.labels, c.digits, scores, fromTopK)
		if tc != nil {
			c.topk[algo] = tc
		}
		var rc *rankCache
		if wantRank {
			if rc = s.renderRank(&buf, algo, c.labels, c.digits, scores, fromRank); rc != nil {
				c.rank[algo] = rc
			}
		}
		switch {
		case tc == nil || (wantRank && rc == nil):
			outcomes[setUncached]++
		case fromTopK != nil && (fromRank != nil || !wantRank):
			outcomes[setReused]++
		default:
			outcomes[setRendered]++
		}
	}
	if meta, err := encodeIndented(&buf, snapshotResponse{
		Version:   s.version,
		Parent:    s.parent,
		BuiltAt:   s.builtAt,
		Corpus:    s.corpus,
		Algos:     s.Algos(),
		KappaTopK: s.kappaTopK,
		Publishes: publishes,
	}); err == nil {
		c.meta = append([]byte(nil), meta...)
	}
	s.resp = c
	return outcomes
}
