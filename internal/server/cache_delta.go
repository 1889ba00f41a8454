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
// from text formatted once per publish or per lineage — the decimals
// 0..n, each source's entry head (escaped label included), each
// position's entry tail, and each rendered algorithm's scores.
// /v1/rank and /v1/compare bodies are assembled from the same text per
// request (respCache.appendRank, appendCompare), so only their heads are
// rendered here.
//
// The appenders are the definition of every body; encoding/json is the
// oracle the tests hold them to, byte for byte. They write what
// json.Encoder with a two-space indent writes for the same response
// struct: appendJSONFloat its floats, appendLabel its strings.

// textArena is a run of texts in one buffer: text i is b[offs[i]:offs[i+1]].
type textArena struct {
	b    []byte
	offs []int32
}

func (a *textArena) at(i int) []byte { return a.b[a.offs[i]:a.offs[i+1]] }

// bytes is the length of a's text plus its offset table.
func (a *textArena) bytes() int { return len(a.b) + 4*len(a.offs) }

// arenaOf returns the arena of n texts, text i appended by add, in a
// buffer of capacity size.
func arenaOf(n, size int, add func(b []byte, i int) []byte) *textArena {
	a := &textArena{b: make([]byte, 0, size), offs: make([]int32, 1, n+1)}
	for i := 0; i < n; i++ {
		a.b = add(a.b, i)
		a.offs = append(a.offs, int32(len(a.b)))
	}
	return a
}

// decimals returns the arena of the decimal texts of 0..n.
func decimals(n int) *textArena {
	return arenaOf(n+1, (n+1)*len(strconv.Itoa(n)), func(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) })
}

// maxJSONFloatLen bounds appendJSONFloat's output: sign, "0.", five
// leading zeros and 17 significant digits at 1e-6, the longest case.
const maxJSONFloatLen = 25

// maxHeadLen bounds an entry head but for its label (fixed text, quotes,
// an int32 ID); json.Marshal escapes a label byte to at most six. Heads
// are the longest texts of any arena, and NewSnapshot bounds their sum.
const maxHeadLen = len(topkEntrySource) + len(topkEntryLabel) + len(topkEntryScore) + 2 + 10

// formatScores returns the arena of the JSON texts of scores in rank
// order. NewSnapshot has refused non-finite scores, and sources whose
// texts int32 offsets cannot address.
func formatScores(scores linalg.Vector, order []int32) *textArena {
	return arenaOf(len(order), len(order)*maxJSONFloatLen, func(b []byte, pos int) []byte { return appendJSONFloat(b, scores[order[pos]]) })
}

// entryHeads holds a lineage's entry heads: head i is source i's top-k
// entry up to its score text, `\n    {\n      "source": <i>,\n      "label":
// <escaped label>,\n      "score": `, out of which /v1/rank and /v1/compare
// slice the label (respCache.label). The incremental source maintainer
// grows its label slice append-only, so a publish copies the heads of the
// shared prefix and renders only newly added sources'.
type entryHeads struct {
	labels []string // the label slice the heads were rendered for
	*textArena
}

// headsFor builds the entry heads of labels from the decimals dig,
// copying the outgoing publish's heads (nil when there are none) for the
// shared backing-array prefix. Plain labels are quoted in place; only the
// rest go through json.Marshal.
func headsFor(labels []string, dig *textArena, old *entryHeads) *entryHeads {
	n, reuse := len(labels), 0
	if old != nil {
		if SameArray(labels, old.labels) {
			return old
		}
		if m := min(len(old.labels), n); m > 0 && &old.labels[0] == &labels[0] {
			reuse = m
		}
	}
	size := int(dig.offs[n]) // a label Marshal escapes grows the arena once
	for _, l := range labels {
		size += len(topkEntrySource) + len(topkEntryLabel) + len(l) + 2 + len(topkEntryScore)
	}
	return &entryHeads{labels, arenaOf(n, size, func(b []byte, i int) []byte {
		if i < reuse {
			return append(b, old.at(i)...)
		}
		b = appendLabel(append(append(append(b, topkEntrySource...), dig.at(i)...), topkEntryLabel...), labels[i])
		return append(b, topkEntryScore...)
	})}
}

// entryTails returns the arena of the top-k entry tails of positions
// 0..m-1, `,\n      "rank": <pos+1>\n    },`: the comma that separates an
// entry from the next ends its tail.
func entryTails(dig *textArena, m int) *textArena {
	return arenaOf(m, m*(len(topkEntryRank)+len(topkEntryClose))+int(dig.offs[m+1]), func(b []byte, pos int) []byte {
		return append(append(append(b, topkEntryRank...), dig.at(pos+1)...), topkEntryClose...)
	})
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
	switch abs := math.Abs(f); {
	case abs >= 1e-6 && abs < 1:
		// The 'f' layout of the 'e' digits, which strconv writes faster:
		// [-]d[.ddd]e-0x is [-]0.<x-1 zeros>d[ddd].
		var buf [32]byte
		e := strconv.AppendFloat(buf[:0], f, 'e', -1, 64)
		if e[0] == '-' {
			b, e = append(b, '-'), e[1:]
		}
		b = append(append(b, "0.00000"[:e[len(e)-1]-'0'+1]...), e[0])
		if len(e) > len("de-0x") {
			b = append(b, e[2:len(e)-4]...)
		}
		return b
	case abs != 0 && (abs < 1e-6 || abs >= 1e21):
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		// clean up e-09 to e-9
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
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
	topkEntryClose  = "\n    },"

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
// slab as is; otherwise the slab is copied together, three texts an
// entry, from the lineage's entry heads and tails and the rank-ordered
// score texts sc into a buffer sized exactly. Either way the head
// carries this publish's version.
func (s *Snapshot) renderTopK(algo Algo, heads, tails, sc *textArena, from *topkCache) *topkCache {
	tc := &topkCache{head: s.head(algo, topkHeadKey)}
	if from != nil {
		tc.entries, tc.ends = from.entries, from.ends
		return tc
	}
	order, _ := s.sets[algo].index()
	maxN := len(tails.offs) - 1
	size := int(sc.offs[maxN]) + len(tails.b)
	if maxN == len(order) {
		size += len(heads.b)
	} else {
		for _, id := range order[:maxN] {
			size += len(heads.at(int(id)))
		}
	}
	entries, ends := make([]byte, 0, size), make([]int, maxN)
	for pos, id := range order[:maxN] {
		entries = append(append(append(entries, heads.at(int(id))...), sc.at(pos)...), tails.at(pos)...)
		ends[pos] = len(entries) - 1 // before the separating comma
	}
	tc.entries, tc.ends = entries, ends
	return tc
}
