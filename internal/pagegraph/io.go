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
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
	"unsafe"

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
// buffer, sourceOf as a single section, and the adjacency as one more —
// the arena of a graph in read form, which is that section verbatim, or
// rows coalesced by a linalg.SectionWriter. A handful of large writes,
// nothing per word.
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
	if g.start != nil {
		return linalg.WriteSection(w, g.arena)
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
// The labels land in one string, of which each is a substring. The word
// sections are read straight into their arrays; the adjacency section
// lands verbatim — degree words included — in one []PageID arena, and the
// graph stays in that read form (see Graph) until a mutation
// materializes its rows. A serial walk over the degree words records
// each row's start; the page-source and link range checks then run on
// up to GOMAXPROCS workers, and the error reported is the one at the
// lowest page, whatever the worker count.
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
	// The label section, length words included, lands in one string. A
	// sized input bounds it by what the word sections leave, so that
	// string is allocated once; otherwise it doubles as bytes arrive.
	var text strings.Builder
	if d.sized {
		text.Grow(int(have - ioHeaderLen - 4*int64(2*pages+links)))
	}
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
		text.Grow(len(b))
		text.Write(b)
		d.discard(len(b))
	}
	g.sourceName = splitLabels(&text, sources)
	if g.sourceOf, err = d.words(pages, "page sources"); err != nil {
		return nil, err
	}
	err = checkRanges(int(pages), func(p int) int64 { return int64(p) }, func(lo, hi int) error {
		for p, s := range g.sourceOf[lo:hi] {
			if uint64(uint32(s)) >= sources {
				return fmt.Errorf("%w: page %d has source %d of %d", ErrCorrupt, lo+p, uint32(s), sources)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if g.arena, err = d.words(pages+links, "adjacency"); err != nil {
		return nil, err
	}
	// The arena holds exactly pages+links words, so a row that would run
	// past it is a row that exceeds the declared link count: the walk
	// stops at the first such page, and only the rows before it are
	// checked for links out of range.
	g.start = make([]int64, pages+1)
	var total uint64
	at, end := int64(0), int(pages)
	for p := range end {
		g.start[p] = at
		deg := uint64(uint32(g.arena[at]))
		if total += deg; total > links {
			end = p
			break
		}
		at += 1 + int64(deg)
	}
	g.start[end] = at
	err = checkRanges(end, func(p int) int64 { return g.start[p] }, func(lo, hi int) error {
		for p := lo; p < hi; p++ {
			for _, q := range g.OutLinks(PageID(p)) {
				if uint64(uint32(q)) >= pages {
					return fmt.Errorf("%w: link to page %d of %d", ErrCorrupt, uint32(q), pages)
				}
			}
		}
		return nil
	})
	switch {
	case err != nil:
		return nil, err
	case end < int(pages):
		return nil, fmt.Errorf("%w: adjacency exceeds declared %d links", ErrCorrupt, links)
	case total != links:
		return nil, fmt.Errorf("%w: declared %d links, read %d", ErrCorrupt, links, total)
	}
	return g, nil
}

// splitLabels cuts n labels out of a label section as read: each is a
// substring of the one string the section is kept in. That string is
// copied out when the section left most of its capacity unused (a sized
// input with trailing bytes), so the labels do not pin the slack.
func splitLabels(text *strings.Builder, n uint64) []string {
	all := text.String()
	if text.Cap() > 2*text.Len() {
		all = strings.Clone(all)
	}
	labels := make([]string, n)
	at := 0
	for i := range labels {
		l := int(binary.LittleEndian.Uint32([]byte(all[at : at+4])))
		labels[i] = all[at+4 : at+4+l]
		at += 4 + l
	}
	return labels
}

// checkWords is the least work, in words, worth a check worker of its own.
const checkWords = 64 << 10

// checkRanges runs check over contiguous ranges of [0, n) of about equal
// weight, where at(i) is the weight of [0, i) — one range per checkWords
// of it, on at most GOMAXPROCS goroutines — and returns the error of the
// lowest range that fails. check reports the first failure in its own
// range, so that is the failure at the lowest index however the ranges
// were cut.
func checkRanges(n int, at func(i int) int64, check func(lo, hi int) error) error {
	total := at(n)
	workers := int(min(int64(runtime.GOMAXPROCS(0)), max(1, total/checkWords)))
	cuts := make([]int, workers+1)
	for w := 1; w < workers; w++ {
		target := total * int64(w) / int64(workers)
		cuts[w] = sort.Search(n, func(i int) bool { return at(i) >= target })
	}
	cuts[workers] = n
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = check(cuts[w], cuts[w+1])
		}()
	}
	errs[0] = check(cuts[0], cuts[1])
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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

// words reads the next n little-endian words, into all the room each
// reserve step leaves — for a sized input, the whole section at once.
func (d *corpusReader) words(n uint64, what string) ([]int32, error) {
	var dst []int32
	for left := n; left > 0; {
		dst = reserve(dst, int(min(left, ioBufBytes/4)), n, d.sized)
		k := int(min(left, uint64(cap(dst)-len(dst))))
		if err := d.fill(dst[len(dst) : len(dst)+k]); err != nil {
			return nil, fmt.Errorf("pagegraph: reading %s: %w", what, noEOF(err))
		}
		dst = dst[:len(dst)+k]
		left -= uint64(k)
	}
	return dst, nil
}

// fill reads len(out) little-endian words into out. On a little-endian
// host the bytes are read into out's own storage: bufio hands a read
// larger than its buffer to the input, so an in-memory input costs one
// copy and a file its read calls. Elsewhere they are decoded a buffer at
// a time.
func (d *corpusReader) fill(out []int32) error {
	if hostLittleEndian {
		_, err := io.ReadFull(d.br, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(out))), 4*len(out)))
		return err
	}
	for len(out) > 0 {
		k := min(len(out), ioBufBytes/4)
		b, err := d.br.Peek(4 * k)
		if err != nil {
			return err
		}
		for i := range out[:k] {
			out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
		d.discard(4 * k)
		out = out[k:]
	}
	return nil
}

// hostLittleEndian reports whether the host stores an int32 in the
// corpus's byte order, so words can be read into place; a variable, so
// tests can take the decoding path on any host.
var hostLittleEndian = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

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
