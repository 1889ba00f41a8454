package server

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// maxTopK caps the n accepted by /v1/topk; larger requests are clamped
// and flagged with an X-TopK-Clamped header.
const maxTopK = 10000

// Pre-assigned header values: assigning an existing []string into the
// header map does not allocate, unlike Header.Set which builds a fresh
// one-element slice per call. Keys are in canonical MIME form.
var jsonContentType = []string{"application/json"}

// respCache is the per-snapshot text every data response is written
// from. Everything here is computed once per publish and immutable
// afterwards, so the serving hot path performs zero marshaling and zero
// allocation between publishes.
type respCache struct {
	etag    string   // strong ETag keyed on the snapshot version, e.g. `"v42"`
	etagHdr []string // ready-to-assign header value holding etag
	topk    map[Algo]*topkCache
	rank    map[Algo]*rankDoc
	meta    []byte // full /v1/snapshot body
	// heads (per source) and tails (per position) are the top-k entry
	// text around the score, carried like digits along a lineage.
	heads  *entryHeads
	tails  *textArena
	digits *textArena // 0..NumSources, every n a top-k cache serves
	// scores holds each algorithm's score texts in rank order; an
	// algorithm's arena is carried over whenever its vector is.
	scores map[Algo]*textArena
}

// Fixed byte fragments of the /v1/topk document surrounding the
// variable parts (the effective n and the entry prefix).
var (
	topkMid      = []byte(",\n  \"results\": [")
	topkTail     = []byte("\n  ]\n}\n")
	topkZeroTail = []byte(",\n  \"results\": []\n}\n")
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

// rankDoc is what /v1/rank and /v1/compare assemble one algorithm's
// bodies from on request: the version-bearing heads, that algorithm's
// score texts and rank index; the escaped labels (in the entry heads),
// decimals and page counts are the snapshot's. Only the heads are
// rendered per publish.
type rankDoc struct {
	head    []byte // document start through `"source": ` (version and algo baked in)
	compare []byte // /v1/compare's, through a's `"source": `
	scores  *textArena
	rank    []int32 // ScoreSet.rank
}

// label returns source id's escaped label, sliced out of its entry head.
func (c *respCache) label(id int32) []byte {
	h := c.heads.at(int(id))
	return h[len(topkEntrySource)+len(c.digits.at(int(id)))+len(topkEntryLabel) : len(h)-len(topkEntryScore)]
}

// appendRank appends the rest of source id's /v1/rank document — all
// that follows the head — to b.
func (c *respCache) appendRank(b []byte, d *rankDoc, id int32, pages []int) []byte {
	dig, n, p := c.digits, len(d.rank), int(d.rank[id])
	b = append(b, dig.at(int(id))...)
	b = append(b, rankLabel...)
	b = append(b, c.label(id)...)
	b = append(b, rankScore...)
	b = append(b, d.scores.at(p)...)
	b = append(b, rankRank...)
	b = append(b, dig.at(p+1)...)
	b = append(b, rankSources...)
	b = append(b, dig.at(n)...)
	if int(id) < len(pages) && pages[id] != 0 {
		b = append(b, rankPages...)
		if pc := pages[id]; pc > 0 && pc <= n {
			b = append(b, dig.at(pc)...)
		} else { // a page count above the source count
			b = strconv.AppendInt(b, int64(pc), 10)
		}
	}
	return append(b, rankClose...)
}

// appendCompare appends the rest of the /v1/compare document of sources
// a and b — all that follows the compare head — to buf, with ratio as
// its score_ratio.
func (c *respCache) appendCompare(buf []byte, d *rankDoc, a, b int32, ratio float64) []byte {
	for i, id := range [2]int32{a, b} {
		if i > 0 {
			buf = append(buf, compareB...)
		}
		p := int(d.rank[id])
		buf = append(buf, c.digits.at(int(id))...)
		buf = append(buf, compareLabel...)
		buf = append(buf, c.label(id)...)
		buf = append(buf, compareScore...)
		buf = append(buf, d.scores.at(p)...)
		buf = append(buf, compareRank...)
		buf = append(buf, c.digits.at(p+1)...)
	}
	buf = append(buf, compareRatio...)
	buf = appendJSONFloat(buf, ratio)
	buf = append(buf, compareDelta...)
	buf = strconv.AppendInt(buf, int64(d.rank[b])-int64(d.rank[a]), 10)
	return append(buf, rankClose...)
}

// recorderOf returns the instrumented route's pooled recorder behind w,
// whose scratch buffer a body is assembled in so the request allocates
// nothing; a throwaway one for an uninstrumented caller.
func recorderOf(w http.ResponseWriter) *statusRecorder {
	if rec, ok := w.(*statusRecorder); ok {
		return rec
	}
	return &statusRecorder{}
}

// writeRank writes source id's whole /v1/rank document in one call.
func (c *respCache) writeRank(w http.ResponseWriter, d *rankDoc, id int32, pages []int) {
	rec := recorderOf(w)
	rec.buf = c.appendRank(append(rec.buf[:0], d.head...), d, id, pages)
	w.Write(rec.buf)
}

// writeCompare writes the whole /v1/compare document of a and b in one
// call.
func (c *respCache) writeCompare(w http.ResponseWriter, d *rankDoc, a, b int32, ratio float64) {
	rec := recorderOf(w)
	rec.buf = c.appendCompare(append(rec.buf[:0], d.compare...), d, a, b, ratio)
	w.Write(rec.buf)
}

// publishOutcome names what a publish did with one score set.
type publishOutcome int

const (
	// setReused: scores and labels were the outgoing snapshot's arrays,
	// so index, score texts and top-k entries were carried over.
	setReused publishOutcome = iota
	// setRendered: the set's top-k entries were rendered by this publish
	// (and its index and score texts too, unless its vector was carried).
	setRendered
	numPublishOutcomes
)

var publishOutcomeNames = [numPublishOutcomes]string{"reused", "rendered"}

// SameArray reports pointer identity of two slices' backing arrays — the
// witness, for immutable snapshot inputs, that one was carried over from
// the other unchanged, and so that whatever was derived from one holds
// for the other.
func SameArray[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// finalize resolves this snapshot's indexes and renders the text its
// data responses are written from. Store.Publish calls it after assigning
// the version and before the snapshot pointer is swapped in, so readers
// only ever observe a fully built cache. publishes is the store's publish
// counter as of this publish (what Store.Publishes reports while this
// snapshot is current, so /v1/snapshot reports it); prev is the outgoing
// snapshot, nil on the first publish. It returns how many score sets met
// each outcome.
//
// One rule, decided here and nowhere else: an input that is prev's very
// array carries everything derived from it. Shared labels carry the
// label map and the entry heads; a shared score vector carries
// its rank index and score texts; and when labels are shared as well, it
// carries the rendered top-k entries, leaving only the version-bearing
// heads to render. /v1/rank and /v1/compare bodies are assembled per
// request from those parts, so nothing of them is rendered here but the
// heads. A publish thus costs the heads plus one index-format-render per
// algorithm whose vector changed — the first publish of a lineage
// included, where that is every algorithm.
//
// That work is 1+2k tasks over k algorithms: the label work (the label
// map, the decimals, the entry heads and tails), then each
// algorithm's index and score texts, then each algorithm's top-k,
// /v1/rank and /v1/compare heads, which wait for the label work and
// their own index. Workers claim tasks in that order, so a render only
// ever waits on tasks already running. A first publish (prev == nil) runs them on GOMAXPROCS
// workers: nothing is served yet, so there is no reader to starve. A
// publish over a served snapshot runs them on one, leaving the readers
// their cores. The caches and outcome counts are filled after the join in
// Algos() order, so they do not depend on the worker count.
//
// The renderers are cache_delta.go's appenders, the one definition of
// every data response; NewSnapshot refused whatever they cannot render.
// The /v1/snapshot body is the one document encoding/json renders here.
func (s *Snapshot) finalize(prev *Snapshot, publishes uint64) (outcomes [numPublishOutcomes]int) {
	c := &respCache{
		etag:   `"v` + strconv.FormatUint(s.version, 10) + `"`,
		topk:   make(map[Algo]*topkCache, len(s.sets)),
		rank:   make(map[Algo]*rankDoc, len(s.sets)),
		scores: make(map[Algo]*textArena, len(s.sets)),
	}
	c.etagHdr = []string{c.etag}
	old := &respCache{} // prev's cache; empty when there is nothing to carry
	sameLabels := false
	workers := runtime.GOMAXPROCS(0)
	if prev != nil {
		workers = 1
		sameLabels = SameArray(s.labels, prev.labels)
		if prev.resp != nil {
			old = prev.resp
		}
	}
	if sameLabels {
		s.shareLabelIndex(prev)
	}
	n := s.NumSources()
	algos := s.Algos()
	parts := make([]algoParts, len(algos))
	for i, algo := range algos {
		p := &parts[i]
		p.indexed = make(chan struct{})
		if prev != nil {
			if pss := prev.sets[algo]; pss != nil && SameArray(s.sets[algo].scores, pss.scores) {
				s.sets[algo].shareIndex(pss)
				if p.sc = old.scores[algo]; sameLabels {
					p.from = old.topk[algo]
				}
			}
		}
	}
	labeled := make(chan struct{})
	var next atomic.Int32
	work := func() {
		for t := int(next.Add(1)) - 1; t <= 2*len(algos); t = int(next.Add(1)) - 1 {
			switch {
			case t == 0:
				s.labelIndex()
				if c.digits, c.tails = old.digits, old.tails; c.digits == nil || len(c.digits.offs) != n+2 {
					c.digits = decimals(n)
					c.tails = entryTails(c.digits, min(n, maxTopK))
				}
				c.heads = headsFor(s.labels, c.digits, old.heads)
				close(labeled)
			case t <= len(algos):
				p, ss := &parts[t-1], s.sets[algos[t-1]]
				order, rank := ss.index()
				if p.rank = rank; p.sc == nil {
					p.sc = formatScores(ss.scores, order)
				}
				close(p.indexed)
			default:
				algo, p := algos[t-1-len(algos)], &parts[t-1-len(algos)]
				<-labeled
				<-p.indexed
				p.tc = s.renderTopK(algo, c.heads.textArena, c.tails, p.sc, p.from)
				p.rd = &rankDoc{head: s.head(algo, rankHeadKey), compare: s.head(algo, compareHeadKey), scores: p.sc, rank: p.rank}
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, 1+len(algos)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for i, algo := range algos {
		p := &parts[i]
		c.scores[algo], c.topk[algo], c.rank[algo] = p.sc, p.tc, p.rd
		if p.from != nil {
			outcomes[setReused]++
		} else {
			outcomes[setRendered]++
		}
	}
	// NewSnapshot refused the one value that fails to encode, a build time
	// out of JSON's range.
	meta, _ := json.MarshalIndent(s.snapshotDocument(publishes), "", "  ")
	c.meta = append(meta, '\n')
	s.resp = c
	return outcomes
}

// algoParts is what finalize carries over or renders for one algorithm.
type algoParts struct {
	indexed chan struct{} // closed once rank and sc are set
	rank    []int32
	sc      *textArena
	from    *topkCache // prev's entries, when they still hold
	tc      *topkCache
	rd      *rankDoc
}

// textBytes counts the pre-rendered text c retains, offset tables
// included: top-k heads and entries, /v1/rank and /v1/compare heads,
// score texts, entry heads and tails, decimals and the /v1/snapshot body.
func (c *respCache) textBytes() int {
	size := len(c.meta) + c.digits.bytes() + c.heads.bytes() + c.tails.bytes()
	for _, tc := range c.topk {
		size += len(tc.head) + len(tc.entries) + 8*len(tc.ends)
	}
	for _, rd := range c.rank {
		size += len(rd.head) + len(rd.compare)
	}
	for _, sc := range c.scores {
		size += sc.bytes()
	}
	return size
}
