package server

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"

	"sourcerank/internal/linalg"
)

// This file is the response pre-encoder's renderer, the only one: first
// publishes and delta publishes alike go through it. finalize (cache.go)
// decides what is carried over from the outgoing snapshot; whatever is
// not carried is copied together here from text formatted once per
// publish — escaped labels, the decimals 0..n, and each rendered
// algorithm's scores (appendJSONFloat replicates the encoder's floats).
//
// The renderers stay defensive: the version-bearing head always comes
// from the encoder, one full entry is probed against an encoder
// rendering, and any mismatch drops that cache so the handlers encode
// per request — the encoder's output is the contract.

// textArena is a run of texts in one buffer: text i is b[offs[i]:offs[i+1]].
type textArena struct {
	b    []byte
	offs []int32
}

func (a *textArena) at(i int) []byte { return a.b[a.offs[i]:a.offs[i+1]] }

// decimals returns the arena of the decimal texts of 0..n.
func decimals(n int) *textArena {
	a := &textArena{b: make([]byte, 0, (n+1)*decLen(n)), offs: make([]int32, 1, n+2)}
	for v := 0; v <= n; v++ {
		a.b = strconv.AppendInt(a.b, int64(v), 10)
		a.offs = append(a.offs, int32(len(a.b)))
	}
	return a
}

// maxJSONFloatLen bounds appendJSONFloat's output: sign, "0.", five
// leading zeros and 17 significant digits at 1e-6, the longest case.
const maxJSONFloatLen = 25

// formatScores refills a with the JSON text of the first m scores in rank
// order, reusing a's buffers. A non-finite score, which the encoder
// refuses, gets empty text; the renderers drop their cache on it.
func (a *textArena) formatScores(scores linalg.Vector, order []int32, m int) {
	a.b, a.offs = slices.Grow(a.b[:0], m*maxJSONFloatLen), append(slices.Grow(a.offs[:0], m+1), 0)
	for _, id := range order[:m] {
		if s := scores[id]; !math.IsNaN(s) && !math.IsInf(s, 0) {
			a.b = appendJSONFloat(a.b, s)
		}
		a.offs = append(a.offs, int32(len(a.b)))
	}
}

// labelCache holds the JSON-escaped (quoted) encoding of every source
// label. Escapes depend only on the label string, and the incremental
// source maintainer grows its label slice append-only, so successive
// publishes in a lineage reuse the shared-prefix escapes and escape
// only newly added sources.
type labelCache struct {
	labels []string // the label slice the escapes were rendered for
	esc    [][]byte
}

// labelCacheFor builds the escaped-label cache for labels, reusing the
// outgoing publish's cache (nil when there is none) for the shared
// backing-array prefix. Plain labels are quoted into one arena; only the
// rest go through json.Marshal.
func labelCacheFor(labels []string, old *labelCache) *labelCache {
	n := len(labels)
	if old != nil && SameArray(labels, old.labels) {
		return old
	}
	esc := make([][]byte, n)
	reuse := 0
	if old != nil {
		if m := min(len(old.labels), n); m > 0 && &old.labels[0] == &labels[0] {
			reuse = copy(esc, old.esc[:m])
		}
	}
	size := 0
	for _, l := range labels[reuse:] {
		size += len(l) + 2
	}
	arena := make([]byte, 0, size) // a label Marshal escapes leaves its share unused
	for i := reuse; i < n; i++ {
		if l := labels[i]; plainLabel(l) {
			at := len(arena)
			arena = append(append(append(arena, '"'), l...), '"')
			esc[i] = arena[at:len(arena):len(arena)]
			continue
		}
		esc[i], _ = json.Marshal(labels[i]) // a string always marshals
	}
	return &labelCache{labels: labels, esc: esc}
}

// plainLabel reports whether json.Marshal quotes l verbatim: every byte
// is printable ASCII other than the ones it escapes, `"` `\` and the
// HTML-significant `<` `>` `&`.
func plainLabel(l string) bool {
	for i := 0; i < len(l); i++ {
		if c := l[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// decLen is the length of v >= 0 in decimal.
func decLen(v int) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest representation, 'f' format unless the magnitude calls for
// scientific notation, with the exponent's leading zero stripped.
// Callers must reject NaN/Inf beforehand (the encoder errors on them).
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// topkHead renders the version/algo head of a top-K document through
// the encoder (so its formatting is exact by construction) and returns
// it, or nil on any shape surprise.
func (s *Snapshot) topkHead(buf *bytes.Buffer, algo Algo) []byte {
	doc, err := encodeIndented(buf, topKResponse{Version: s.version, Algo: algo, N: 0, Results: []Entry{}})
	if err != nil {
		return nil
	}
	i := bytes.Index(doc, topkNMarker)
	if i < 0 {
		return nil
	}
	return append([]byte(nil), doc[:i+len(topkNMarker)]...)
}

// The fixed text of one /v1/topk entry and one /v1/rank fragment, as the
// encoder indents them.
const (
	topkEntrySource = "\n    {\n      \"source\": "
	topkEntryLabel  = ",\n      \"label\": "
	topkEntryScore  = ",\n      \"score\": "
	topkEntryRank   = ",\n      \"rank\": "

	rankFragLabel   = ",\n  \"label\": "
	rankFragScore   = ",\n  \"score\": "
	rankFragRank    = ",\n  \"rank\": "
	rankFragSources = ",\n  \"sources\": "
	rankFragPages   = ",\n  \"pages\": "
	rankFragClose   = "\n}\n"
)

// renderTopK builds algo's top-K cache. The head, which carries the
// version, is always encoded afresh; from, when finalize established
// that the outgoing snapshot's entries still hold, supplies the entry
// slab as is. Otherwise the slab is copied together from the escaped
// labels, the decimals dig and the rank-ordered score texts sc into a
// buffer sized exactly, and entry 0 is probed against a full encoder
// rendering, so a formatting divergence drops the cache instead of
// serving wrong bytes.
func (s *Snapshot) renderTopK(buf *bytes.Buffer, algo Algo, lc *labelCache, dig, sc *textArena, from *topkCache) *topkCache {
	head := s.topkHead(buf, algo)
	if head == nil {
		return nil
	}
	if from != nil {
		return &topkCache{head: head, entries: from.entries, ends: from.ends}
	}
	order, _ := s.sets[algo].index()
	maxN := min(len(order), maxTopK)
	if maxN == 0 {
		return &topkCache{head: head}
	}
	size := maxN*(1+len(topkEntrySource)+len(topkEntryLabel)+len(topkEntryScore)+len(topkEntryRank)+len(entryClose)) - 1
	for pos, id := range order[:maxN] {
		if len(sc.at(pos)) == 0 {
			return nil // non-finite
		}
		size += len(dig.at(int(id))) + len(lc.esc[id]) + len(sc.at(pos)) + len(dig.at(pos+1))
	}
	entries := make([]byte, 0, size)
	ends := make([]int, maxN)
	for pos, id := range order[:maxN] {
		if pos > 0 {
			entries = append(entries, ',')
		}
		entries = append(entries, topkEntrySource...)
		entries = append(entries, dig.at(int(id))...)
		entries = append(entries, topkEntryLabel...)
		entries = append(entries, lc.esc[id]...)
		entries = append(entries, topkEntryScore...)
		entries = append(entries, sc.at(pos)...)
		entries = append(entries, topkEntryRank...)
		entries = append(entries, dig.at(pos+1)...)
		entries = append(entries, entryClose...)
		ends[pos] = len(entries)
	}
	if !s.probeTopKEntry(buf, algo, entries[:ends[0]]) {
		return nil
	}
	return &topkCache{head: head, entries: entries, ends: ends}
}

// probeTopKEntry checks the hand-rendered first entry against the
// encoder's rendering of the same entry.
func (s *Snapshot) probeTopKEntry(buf *bytes.Buffer, algo Algo, want []byte) bool {
	results, err := s.TopK(algo, 1)
	if err != nil || len(results) != 1 {
		return false
	}
	doc, err := encodeIndented(buf, topKResponse{Version: s.version, Algo: algo, N: 1, Results: results})
	if err != nil {
		return false
	}
	i := bytes.Index(doc, topkMid)
	if i < 0 {
		return false
	}
	rest := doc[i+len(topkMid):]
	return bytes.HasSuffix(rest, topkTail) && bytes.Equal(rest[:len(rest)-len(topkTail)], want)
}

// rankHead renders source 0's full document and splits it at the rank
// marker, returning the encoder-exact head plus the encoder's fragment
// for source 0 (aliasing buf — consume before the next encode).
func (s *Snapshot) rankHead(buf *bytes.Buffer, algo Algo) (head, frag0 []byte) {
	entry, err := s.Entry(algo, 0)
	if err != nil {
		return nil, nil
	}
	resp := rankResponse{Version: s.version, Algo: algo, Entry: entry, Sources: s.NumSources()}
	if pc := s.pageCount; len(pc) > 0 {
		resp.Pages = pc[0]
	}
	doc, err := encodeIndented(buf, resp)
	if err != nil {
		return nil, nil
	}
	i := bytes.Index(doc, rankMarker)
	if i < 0 {
		return nil, nil
	}
	return append([]byte(nil), doc[:i]...), doc[i:]
}

// renderRank is renderTopK for the per-source /v1/rank fragments, with
// source 0 pinned to the encoder's rendering on both the carried and the
// rendered path.
func (s *Snapshot) renderRank(buf *bytes.Buffer, algo Algo, lc *labelCache, dig, sc *textArena, from *rankCache) *rankCache {
	head, frag0 := s.rankHead(buf, algo)
	if head == nil {
		return nil
	}
	if from != nil {
		if !bytes.Equal(frag0, from.frags[:from.offs[1]]) {
			return nil
		}
		return &rankCache{head: head, frags: from.frags, offs: from.offs}
	}
	n := s.NumSources()
	_, rank := s.sets[algo].index()
	pcs := s.pageCount
	size := n * (len(rankMarker) + len(rankFragLabel) + len(rankFragScore) + len(rankFragRank) + len(rankFragSources) +
		len(rankFragClose) + len(dig.at(n)))
	for id, e := range lc.esc {
		p := int(rank[id])
		if len(sc.at(p)) == 0 {
			return nil // non-finite
		}
		size += len(dig.at(id)) + len(e) + len(sc.at(p)) + len(dig.at(p+1))
		if id < len(pcs) && pcs[id] != 0 {
			size += len(rankFragPages) + decLen(pcs[id])
		}
	}
	if size > math.MaxInt32 {
		return nil
	}
	frags := make([]byte, 0, size)
	offs := make([]int32, n+1)
	for id := 0; id < n; id++ {
		p := int(rank[id])
		frags = append(frags, rankMarker...)
		frags = append(frags, dig.at(id)...)
		frags = append(frags, rankFragLabel...)
		frags = append(frags, lc.esc[id]...)
		frags = append(frags, rankFragScore...)
		frags = append(frags, sc.at(p)...)
		frags = append(frags, rankFragRank...)
		frags = append(frags, dig.at(p+1)...)
		frags = append(frags, rankFragSources...)
		frags = append(frags, dig.at(n)...)
		if id < len(pcs) && pcs[id] != 0 {
			frags = append(frags, rankFragPages...)
			if pc := pcs[id]; pc > 0 && pc <= n {
				frags = append(frags, dig.at(pc)...)
			} else { // a page count above the source count
				frags = strconv.AppendInt(frags, int64(pc), 10)
			}
		}
		frags = append(frags, rankFragClose...)
		offs[id+1] = int32(len(frags))
	}
	if !bytes.Equal(frag0, frags[:offs[1]]) {
		return nil
	}
	return &rankCache{head: head, frags: frags, offs: offs}
}
