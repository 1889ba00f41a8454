package pagegraph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"time"

	"sourcerank/internal/linalg"
)

// Binary corpus format, version 1, every integer little-endian:
//
//	header    magic u32 | version u32 | sources u64 | pages u64 | links u64
//	labels    sources × [ length u32 | UTF-8 bytes ]
//	sourceOf  pages × u32
//	adjacency pages × [ degree u32 | degree × target u32 ]
//
// Past the labels the file is a flat run of 2·pages + links words, which
// is what lets both directions move it in bulk (DESIGN.md §8).

const (
	ioMagic     = 0x53524B50 // "SRKP"
	ioVersion   = 1
	ioHeaderLen = 32
	// maxLabelLen bounds one source label.
	maxLabelLen = 1 << 16
	// ioBufBytes sizes the reader's buffer, which doubles as the decode
	// chunk, and the writer's label staging. It must hold the longest
	// label plus its length word.
	ioBufBytes = 128 << 10
	// growStart is the first capacity, in elements, of an array read
	// from an input of unknown length.
	growStart = 8 << 10
)

// ErrCorrupt reports a malformed serialized corpus.
var ErrCorrupt = errors.New("pagegraph: corrupt corpus encoding")

// Write serializes the page graph: header and labels through one staging
// buffer, sourceOf as a single section, adjacency rows coalesced by a
// linalg.SectionWriter — a handful of large writes, nothing per word.
func (g *Graph) Write(w io.Writer) error {
	le := binary.LittleEndian
	buf := make([]byte, 0, ioBufBytes)
	buf = le.AppendUint32(buf, ioMagic)
	buf = le.AppendUint32(buf, ioVersion)
	buf = le.AppendUint64(buf, uint64(g.NumSources()))
	buf = le.AppendUint64(buf, uint64(g.NumPages()))
	buf = le.AppendUint64(buf, uint64(g.numLinks))
	for _, label := range g.sourceName {
		if len(buf)+4+len(label) > cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = le.AppendUint32(buf, uint32(len(label)))
		buf = append(buf, label...)
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	if err := linalg.WriteSection(w, g.sourceOf); err != nil {
		return err
	}
	sw := linalg.NewSectionWriter[int32](w)
	for _, row := range g.adj {
		sw.Append(int32(len(row)))
		if err := sw.Write(row); err != nil {
			return err
		}
	}
	return sw.Flush()
}

// ReadFrom deserializes a corpus written by Write, validating structure
// so corrupted files surface as ErrCorrupt and truncated ones as
// io.ErrUnexpectedEOF.
//
// The word sections are decoded a buffer at a time; the adjacency section
// lands verbatim — degree words included — in one []PageID arena, and
// each row is a view arena[lo:hi:hi] of it. Capacity equals length, so
// AddLink on a read row reallocates that row instead of writing into its
// neighbour, and SetOutLinks never reuses a row's storage at all.
//
// Nothing is allocated on the header's word alone. When r exposes how
// many bytes it holds (Len, or Stat on a regular file) the declared
// counts are checked against that and every array is allocated once at
// its final size; otherwise arrays start small and double as bytes
// actually arrive.
func ReadFrom(r io.Reader) (*Graph, error) {
	have := inputLen(r) // before the buffered reader drains r
	d := corpusReader{br: bufio.NewReaderSize(r, ioBufBytes)}
	le := binary.LittleEndian
	head, err := d.br.Peek(ioHeaderLen)
	if err != nil {
		return nil, fmt.Errorf("pagegraph: reading header: %w", noEOF(err))
	}
	if magic := le.Uint32(head); magic != ioMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, magic)
	}
	if ver := le.Uint32(head[4:]); ver != ioVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, ver)
	}
	sources, pages, links := le.Uint64(head[8:]), le.Uint64(head[16:]), le.Uint64(head[24:])
	// IDs are int32: a count above MaxInt32 cannot be addressed.
	if sources > math.MaxInt32 || pages > math.MaxInt32 || links > math.MaxInt32 {
		return nil, fmt.Errorf("%w: implausible header %d/%d/%d", ErrCorrupt, sources, pages, links)
	}
	d.discard(ioHeaderLen)
	if have >= 0 {
		// Empty labels and the word sections are the least the body can be.
		if need := 4 * (sources + 2*pages + links); uint64(have) < ioHeaderLen+need {
			return nil, fmt.Errorf("pagegraph: header declares %d/%d/%d, a body of at least %d bytes, input holds %d: %w",
				sources, pages, links, need, have-ioHeaderLen, io.ErrUnexpectedEOF)
		}
		d.sized = true
	}

	g := &Graph{numLinks: int64(links)}
	for s := uint64(0); s < sources; s++ {
		b, err := d.br.Peek(4)
		if err != nil {
			return nil, fmt.Errorf("pagegraph: reading label length: %w", noEOF(err))
		}
		n := le.Uint32(b)
		if n > maxLabelLen {
			return nil, fmt.Errorf("%w: label length %d", ErrCorrupt, n)
		}
		if b, err = d.br.Peek(4 + int(n)); err != nil {
			return nil, fmt.Errorf("pagegraph: reading label: %w", noEOF(err))
		}
		g.sourceName = append(reserve(g.sourceName, 1, sources, d.sized), string(b[4:]))
		d.discard(len(b))
	}
	if g.sourceOf, err = d.words(pages, "page sources"); err != nil {
		return nil, err
	}
	for p, s := range g.sourceOf {
		if uint64(uint32(s)) >= sources {
			return nil, fmt.Errorf("%w: page %d has source %d of %d", ErrCorrupt, p, uint32(s), sources)
		}
	}
	arena, err := d.words(pages+links, "adjacency")
	if err != nil {
		return nil, err
	}
	// The arena holds exactly pages+links words, so a row that would run
	// past it is a row that exceeds the declared link count.
	g.adj = make([][]PageID, pages)
	var total uint64
	at := 0
	for p := range g.adj {
		deg := uint64(uint32(arena[at]))
		at++
		total += deg
		if total > links {
			return nil, fmt.Errorf("%w: adjacency exceeds declared %d links", ErrCorrupt, links)
		}
		row := arena[at : at+int(deg) : at+int(deg)]
		for _, q := range row {
			if uint64(uint32(q)) >= pages {
				return nil, fmt.Errorf("%w: link to page %d of %d", ErrCorrupt, uint32(q), pages)
			}
		}
		g.adj[p] = row
		at += int(deg)
	}
	if total != links {
		return nil, fmt.Errorf("%w: declared %d links, read %d", ErrCorrupt, links, total)
	}
	return g, nil
}

// LoadStats describes one ReadFile: what was read and what it cost. The
// commands log it and srserve exports it, so a slow boot can be put down
// to the corpus load, or not, without a profiler.
type LoadStats struct {
	Path    string
	Bytes   int64
	Pages   int
	Links   int64
	Sources int
	Seconds float64
}

// MBPerSec is the decode rate, in 10⁶ bytes per second.
func (s LoadStats) MBPerSec() float64 { return float64(s.Bytes) / 1e6 / s.Seconds }

func (s LoadStats) String() string {
	return fmt.Sprintf("loaded corpus %s: %d bytes, %d pages, %d links, %d sources in %.3fs (%.0f MB/s)",
		s.Path, s.Bytes, s.Pages, s.Links, s.Sources, s.Seconds, s.MBPerSec())
}

// ReadFile reads the corpus file at path with ReadFrom.
func ReadFile(path string) (*Graph, LoadStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, LoadStats{}, err
	}
	defer f.Close()
	start := time.Now()
	g, err := ReadFrom(f)
	if err != nil {
		return nil, LoadStats{}, fmt.Errorf("%s: %w", path, err)
	}
	st := LoadStats{Path: path, Pages: g.NumPages(), Links: g.NumLinks(), Sources: g.NumSources(),
		Seconds: time.Since(start).Seconds()}
	if fi, err := f.Stat(); err == nil {
		st.Bytes = fi.Size()
	}
	return g, st, nil
}

// corpusReader is ReadFrom's view of its input: one buffered reader, and
// whether the header's counts have been checked against the input's
// length and may size allocations.
type corpusReader struct {
	br    *bufio.Reader
	sized bool
}

// discard consumes n bytes a Peek has already returned, which cannot fail.
func (d *corpusReader) discard(n int) { _, _ = d.br.Discard(n) }

// words decodes the next n little-endian words, a buffer at a time.
func (d *corpusReader) words(n uint64, what string) ([]int32, error) {
	var dst []int32
	for left := n; left > 0; {
		k := int(min(left, ioBufBytes/4))
		b, err := d.br.Peek(4 * k)
		if err != nil {
			return nil, fmt.Errorf("pagegraph: reading %s: %w", what, noEOF(err))
		}
		dst = reserve(dst, k, n, d.sized)
		out := dst[len(dst) : len(dst)+k]
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
		dst = dst[:len(dst)+k]
		d.discard(4 * k)
		left -= uint64(k)
	}
	return dst, nil
}

// reserve returns s with room for k more elements on the way to a
// declared final length of total. With sized set total has been checked
// against the input's length and is allocated at once; otherwise capacity
// at least doubles, so what is allocated stays within a constant factor
// of what has been read.
func reserve[T any](s []T, k int, total uint64, sized bool) []T {
	if cap(s)-len(s) >= k {
		return s
	}
	c := total
	if !sized {
		c = min(total, max(uint64(len(s)+k), 2*uint64(cap(s)), growStart))
	}
	return append(make([]T, 0, c), s...)
}

// inputLen reports how many bytes r has left to give, or -1 when it does
// not say: in-memory readers expose Len, regular files Stat and Seek.
func inputLen(r io.Reader) int64 {
	switch v := r.(type) {
	case interface{ Len() int }:
		return int64(v.Len())
	case interface {
		io.Seeker
		Stat() (fs.FileInfo, error)
	}:
		fi, err := v.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return -1
		}
		pos, err := v.Seek(0, io.SeekCurrent)
		if err != nil || pos > fi.Size() {
			return -1
		}
		return fi.Size() - pos
	}
	return -1
}

// noEOF reports an input that ends inside the corpus as truncation.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
