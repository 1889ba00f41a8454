package server

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// This file is the response pre-encoder's renderer, the only one: first
// publishes and delta publishes alike go through it. finalize (cache.go)
// decides what is carried over from the outgoing snapshot; whatever is
// not carried is rendered here with byte-exact appenders (cached escaped
// label bytes plus appendJSONFloat, which replicates the encoder's float
// formatting) instead of round-tripping the corpus through encoding/json.
//
// The renderers stay defensive: the version-bearing head always comes
// from the encoder, one full entry is probed against an encoder
// rendering, and any mismatch drops that cache so the handlers encode
// per request — the encoder's output is the contract.

// labelCache holds the JSON-escaped (quoted) encoding of every source
// label. Escapes depend only on the label string, and the incremental
// source maintainer grows its label slice append-only, so successive
// publishes in a lineage reuse the shared-prefix escapes and marshal
// only newly added sources.
type labelCache struct {
	labels []string // the label slice the escapes were rendered for
	esc    [][]byte
}

// labelCacheFor builds the escaped-label cache for labels, reusing the
// outgoing publish's cache (nil when there is none) for the shared
// backing-array prefix.
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
	for i := reuse; i < n; i++ {
		b, err := json.Marshal(labels[i])
		if err != nil {
			return nil
		}
		esc[i] = b
	}
	return &labelCache{labels: labels, esc: esc}
}

// maxJSONFloatLen bounds appendJSONFloat's output: sign, "0.", five
// leading zeros and 17 significant digits at 1e-6, the longest case.
const maxJSONFloatLen = 25

// decLen is the length of v in decimal.
func decLen(v int) int {
	n := 1
	if v < 0 {
		n, v = 2, -v
	}
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
// slab as is. Otherwise the slab is rendered directly into a buffer
// sized once from an upper bound, and entry 0 is probed against a full
// encoder rendering, so a formatting divergence drops the cache instead
// of serving wrong bytes.
func (s *Snapshot) renderTopK(buf *bytes.Buffer, algo Algo, lc *labelCache, from *topkCache) *topkCache {
	head := s.topkHead(buf, algo)
	if head == nil {
		return nil
	}
	if from != nil {
		return &topkCache{head: head, entries: from.entries, ends: from.ends}
	}
	ss := s.sets[algo]
	if lc == nil || len(lc.esc) != len(s.labels) {
		return nil
	}
	order, _ := ss.index()
	maxN := min(len(order), maxTopK)
	if maxN == 0 {
		return &topkCache{head: head}
	}
	size := maxN * (1 + len(topkEntrySource) + len(topkEntryLabel) + len(topkEntryScore) + len(topkEntryRank) +
		len(entryClose) + 2*decLen(len(order)) + maxJSONFloatLen)
	for _, id := range order[:maxN] {
		size += len(lc.esc[id])
	}
	entries := make([]byte, 0, size)
	ends := make([]int, maxN)
	for pos, id := range order[:maxN] {
		score := ss.scores[id]
		if math.IsNaN(score) || math.IsInf(score, 0) {
			return nil
		}
		if pos > 0 {
			entries = append(entries, ',')
		}
		entries = append(entries, topkEntrySource...)
		entries = strconv.AppendInt(entries, int64(id), 10)
		entries = append(entries, topkEntryLabel...)
		entries = append(entries, lc.esc[id]...)
		entries = append(entries, topkEntryScore...)
		entries = appendJSONFloat(entries, score)
		entries = append(entries, topkEntryRank...)
		entries = strconv.AppendInt(entries, int64(pos+1), 10)
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
func (s *Snapshot) renderRank(buf *bytes.Buffer, algo Algo, lc *labelCache, from *rankCache) *rankCache {
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
	ss := s.sets[algo]
	if lc == nil || len(lc.esc) != n {
		return nil
	}
	_, rank := ss.index()
	pcs := s.pageCount
	size := n * (len(rankMarker) + len(rankFragLabel) + len(rankFragScore) + len(rankFragRank) + len(rankFragSources) +
		len(rankFragClose) + 3*decLen(n) + maxJSONFloatLen)
	for id, e := range lc.esc {
		size += len(e)
		if id < len(pcs) && pcs[id] != 0 {
			size += len(rankFragPages) + decLen(pcs[id])
		}
	}
	frags := make([]byte, 0, size)
	offs := make([]int32, n+1)
	for id := 0; id < n; id++ {
		score := ss.scores[id]
		if math.IsNaN(score) || math.IsInf(score, 0) {
			return nil
		}
		frags = append(frags, rankMarker...)
		frags = strconv.AppendInt(frags, int64(id), 10)
		frags = append(frags, rankFragLabel...)
		frags = append(frags, lc.esc[id]...)
		frags = append(frags, rankFragScore...)
		frags = appendJSONFloat(frags, score)
		frags = append(frags, rankFragRank...)
		frags = strconv.AppendInt(frags, int64(rank[id])+1, 10)
		frags = append(frags, rankFragSources...)
		frags = strconv.AppendInt(frags, int64(n), 10)
		if id < len(pcs) && pcs[id] != 0 {
			frags = append(frags, rankFragPages...)
			frags = strconv.AppendInt(frags, int64(pcs[id]), 10)
		}
		frags = append(frags, rankFragClose...)
		if len(frags) > 1<<31-1 {
			return nil
		}
		offs[id+1] = int32(len(frags))
	}
	if !bytes.Equal(frag0, frags[:offs[1]]) {
		return nil
	}
	return &rankCache{head: head, frags: frags, offs: offs}
}
