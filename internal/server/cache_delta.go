package server

import (
	"encoding/json"
	"math"
	"strconv"

	"sourcerank/internal/linalg"
)

// This file is the response renderer, the only one: first publishes and
// delta publishes alike go through it, and no data response is encoded
// any other way. finalize (cache.go) decides what is carried over from
// the outgoing snapshot; whatever is not carried is copied together here
// from text formatted once per publish — escaped labels, the decimals
// 0..n, and each rendered algorithm's scores. /v1/rank and /v1/compare
// bodies are assembled from the same text per request
// (respCache.appendRank, appendCompare), so only their heads are
// rendered here.
//
// The appenders are the definition of every body; encoding/json is the
// oracle the tests hold them to, byte for byte. They write what
// json.Encoder with a two-space indent writes for the same response
// struct: appendJSONFloat its floats, labelCacheFor and appendLabel its
// strings.

// textArena is a run of texts in one buffer: text i is b[offs[i]:offs[i+1]].
type textArena struct {
	b    []byte
	offs []int32
}

func (a *textArena) at(i int) []byte { return a.b[a.offs[i]:a.offs[i+1]] }

// bytes is the length of a's text plus its offset table.
func (a *textArena) bytes() int { return len(a.b) + 4*len(a.offs) }

// decimals returns the arena of the decimal texts of 0..n.
func decimals(n int) *textArena {
	a := &textArena{b: make([]byte, 0, (n+1)*len(strconv.Itoa(n))), offs: make([]int32, 1, n+2)}
	for v := 0; v <= n; v++ {
		a.b = strconv.AppendInt(a.b, int64(v), 10)
		a.offs = append(a.offs, int32(len(a.b)))
	}
	return a
}

// maxJSONFloatLen bounds appendJSONFloat's output: sign, "0.", five
// leading zeros and 17 significant digits at 1e-6, the longest case.
const maxJSONFloatLen = 25

// formatScores returns the arena of the JSON texts of scores in rank
// order. NewSnapshot has refused non-finite scores, and more sources
// than int32 offsets into the arena address.
func formatScores(scores linalg.Vector, order []int32) *textArena {
	a := &textArena{b: make([]byte, 0, len(order)*maxJSONFloatLen), offs: make([]int32, 1, len(order)+1)}
	for _, id := range order {
		a.b = appendJSONFloat(a.b, scores[id])
		a.offs = append(a.offs, int32(len(a.b)))
	}
	return a
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

// appendLabel appends l quoted and escaped as json.Marshal renders it.
func appendLabel(b []byte, l string) []byte {
	if plainLabel(l) {
		return append(append(append(b, '"'), l...), '"')
	}
	q, _ := json.Marshal(l) // a string always marshals
	return append(b, q...)
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

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest representation, 'f' format unless the magnitude calls for
// scientific notation, with the exponent's leading zero stripped. f must
// be finite: JSON has no text for NaN or ±Inf.
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

// The fixed text of the documents' heads, one /v1/topk entry, one
// /v1/rank body and one /v1/compare body, as the encoder indents them.
const (
	headVersion    = "{\n  \"version\": "
	headAlgo       = ",\n  \"algo\": "
	topkHeadKey    = ",\n  \"n\": "
	rankHeadKey    = ",\n  \"source\": "
	compareHeadKey = ",\n  \"a\": {\n    \"source\": "

	topkEntrySource = "\n    {\n      \"source\": "
	topkEntryLabel  = ",\n      \"label\": "
	topkEntryScore  = ",\n      \"score\": "
	topkEntryRank   = ",\n      \"rank\": "

	rankLabel   = ",\n  \"label\": "
	rankScore   = ",\n  \"score\": "
	rankRank    = ",\n  \"rank\": "
	rankSources = ",\n  \"sources\": "
	rankPages   = ",\n  \"pages\": "
	rankClose   = "\n}\n"

	compareLabel = ",\n    \"label\": "
	compareScore = ",\n    \"score\": "
	compareRank  = ",\n    \"rank\": "
	compareB     = "\n  },\n  \"b\": {\n    \"source\": "
	compareRatio = "\n  },\n  \"score_ratio\": "
	compareDelta = ",\n  \"rank_delta\": "
)

// head renders the start of algo's documents of one kind: the version,
// the algo and key, the first key of that kind.
func (s *Snapshot) head(algo Algo, key string) []byte {
	b := append(make([]byte, 0, len(headVersion)+20+len(headAlgo)+len(algo)+2+len(key)), headVersion...)
	b = strconv.AppendUint(b, s.version, 10)
	b = appendLabel(append(b, headAlgo...), string(algo))
	return append(b, key...)
}

// renderTopK builds algo's top-K cache. from, when finalize established
// that the outgoing snapshot's entries still hold, supplies the entry
// slab as is; otherwise the slab is copied together from the escaped
// labels, the decimals dig and the rank-ordered score texts sc into a
// buffer sized exactly. Either way the head carries this publish's
// version.
func (s *Snapshot) renderTopK(algo Algo, lc *labelCache, dig, sc *textArena, from *topkCache) *topkCache {
	tc := &topkCache{head: s.head(algo, topkHeadKey)}
	if from != nil {
		tc.entries, tc.ends = from.entries, from.ends
		return tc
	}
	order, _ := s.sets[algo].index()
	maxN := min(len(order), maxTopK)
	size := max(maxN*(1+len(topkEntrySource)+len(topkEntryLabel)+len(topkEntryScore)+len(topkEntryRank)+len(entryClose))-1, 0)
	for pos, id := range order[:maxN] {
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
	tc.entries, tc.ends = entries, ends
	return tc
}
