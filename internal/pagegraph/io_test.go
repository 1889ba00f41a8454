package pagegraph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// readFromReference is the version-1 reader as first written (but for
// the header guard, which admitted 2³¹): one reflective binary.Read per
// word, one AddLink per edge on the mutable builder. It shares nothing
// with ReadFrom but the format constants and stays as the oracle the bulk
// reader is compared against.
func readFromReference(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	var magic, ver uint32
	if err := binary.Read(br, le, &magic); err != nil {
		return nil, fmt.Errorf("pagegraph: reading magic: %w", err)
	}
	if magic != ioMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, magic)
	}
	if err := binary.Read(br, le, &ver); err != nil {
		return nil, err
	}
	if ver != ioVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, ver)
	}
	var sources, pages, links uint64
	if err := binary.Read(br, le, &sources); err != nil {
		return nil, err
	}
	if err := binary.Read(br, le, &pages); err != nil {
		return nil, err
	}
	if err := binary.Read(br, le, &links); err != nil {
		return nil, err
	}
	if sources > math.MaxInt32 || pages > math.MaxInt32 || links > math.MaxInt32 {
		return nil, fmt.Errorf("%w: implausible header %d/%d/%d", ErrCorrupt, sources, pages, links)
	}
	g := New()
	for s := uint64(0); s < sources; s++ {
		var n uint32
		if err := binary.Read(br, le, &n); err != nil {
			return nil, fmt.Errorf("pagegraph: reading label length: %w", err)
		}
		if n > 1<<16 {
			return nil, fmt.Errorf("%w: label length %d", ErrCorrupt, n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("pagegraph: reading label: %w", err)
		}
		g.AddSource(string(buf))
	}
	for p := uint64(0); p < pages; p++ {
		var s uint32
		if err := binary.Read(br, le, &s); err != nil {
			return nil, fmt.Errorf("pagegraph: reading page source: %w", err)
		}
		if uint64(s) >= sources {
			return nil, fmt.Errorf("%w: page %d has source %d of %d", ErrCorrupt, p, s, sources)
		}
		g.AddPage(SourceID(s))
	}
	var total uint64
	for p := uint64(0); p < pages; p++ {
		var deg uint32
		if err := binary.Read(br, le, &deg); err != nil {
			return nil, fmt.Errorf("pagegraph: reading degree: %w", err)
		}
		total += uint64(deg)
		if total > links {
			return nil, fmt.Errorf("%w: adjacency exceeds declared %d links", ErrCorrupt, links)
		}
		for k := uint32(0); k < deg; k++ {
			var q uint32
			if err := binary.Read(br, le, &q); err != nil {
				return nil, fmt.Errorf("pagegraph: reading link: %w", err)
			}
			if uint64(q) >= pages {
				return nil, fmt.Errorf("%w: link to page %d of %d", ErrCorrupt, q, pages)
			}
			g.AddLink(PageID(p), PageID(q))
		}
	}
	if total != links {
		return nil, fmt.Errorf("%w: declared %d links, read %d", ErrCorrupt, links, total)
	}
	return g, nil
}

// writeReference is the version-1 writer as first written, the byte
// oracle for Write.
func writeReference(g *Graph) []byte {
	var buf bytes.Buffer
	le := binary.LittleEndian
	put := func(x any) { binary.Write(&buf, le, x) }
	put(uint32(ioMagic))
	put(uint32(ioVersion))
	put(uint64(g.NumSources()))
	put(uint64(g.NumPages()))
	put(uint64(g.numLinks))
	for _, label := range g.sourceName {
		put(uint32(len(label)))
		buf.WriteString(label)
	}
	for _, s := range g.sourceOf {
		put(uint32(s))
	}
	for p := range g.NumPages() {
		row := g.OutLinks(PageID(p))
		put(uint32(len(row)))
		for _, q := range row {
			put(uint32(q))
		}
	}
	return buf.Bytes()
}

func mustWrite(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireSameGraph compares every field of two graphs by content.
func requireSameGraph(t testing.TB, got, want *Graph) {
	t.Helper()
	if got.NumLinks() != want.NumLinks() {
		t.Fatalf("numLinks %d, want %d", got.NumLinks(), want.NumLinks())
	}
	if !slices.Equal(got.sourceName, want.sourceName) {
		t.Fatalf("labels differ (%d vs %d)", len(got.sourceName), len(want.sourceName))
	}
	if !slices.Equal(got.sourceOf, want.sourceOf) {
		t.Fatalf("sourceOf differs (%d vs %d)", len(got.sourceOf), len(want.sourceOf))
	}
	if got.NumPages() != want.NumPages() {
		t.Fatalf("%d rows, want %d", got.NumPages(), want.NumPages())
	}
	for p := range PageID(want.NumPages()) {
		if !slices.Equal(got.OutLinks(p), want.OutLinks(p)) {
			t.Fatalf("row %d = %v, want %v", p, got.OutLinks(p), want.OutLinks(p))
		}
	}
}

// randomGraph draws a graph whose shape the caller steers: pages spread
// over sources, each page with up to maxDeg links, parallel links and
// self links included.
func randomGraph(rng *rand.Rand, sources, pages, maxDeg int) *Graph {
	g := New()
	for s := 0; s < sources; s++ {
		g.AddSource(fmt.Sprintf("s%d.example", s))
	}
	for p := 0; p < pages; p++ {
		g.AddPage(SourceID(rng.Intn(sources)))
	}
	for p := 0; p < pages && maxDeg > 0; p++ {
		for k := rng.Intn(maxDeg + 1); k > 0; k-- {
			q := PageID(rng.Intn(pages))
			g.AddLink(PageID(p), q)
			if rng.Intn(4) == 0 {
				g.AddLink(PageID(p), q) // parallel link
			}
		}
	}
	return g
}

// ioCases are the shapes the reader and writer are checked on: the
// degenerate ones, the label limits, and graphs whose word sections and
// single rows are longer than the reader's buffer.
func ioCases(t testing.TB) map[string]*Graph {
	rng := rand.New(rand.NewSource(16))
	cases := map[string]*Graph{
		"empty":      New(),
		"fixture":    twoSourceFixture(t),
		"empty rows": randomGraph(rng, 3, 50, 0),
		"small":      randomGraph(rng, 7, 200, 6),
		// Three buffers of adjacency, so rows straddle chunk boundaries.
		"multi-chunk": randomGraph(rng, 40, 9000, 20),
	}
	noPages := New()
	noPages.AddSource("lonely.example")
	noPages.AddSource("")
	cases["sources without pages"] = noPages

	labels := New()
	labels.AddSource("")
	labels.AddSource(strings.Repeat("x", maxLabelLen))
	labels.AddSource("after.example")
	labels.AddLink(labels.AddPage(1), labels.AddPage(2))
	cases["label limits"] = labels

	// One row longer than the buffer, with short rows on both sides.
	long := randomGraph(rng, 2, 10, 3)
	for k := 0; k < ioBufBytes/4+100; k++ {
		long.AddLink(4, PageID(k%10))
	}
	cases["long row"] = long
	return cases
}

// hidden wraps b in a reader that exposes neither Len nor Stat.
func hidden(b []byte) io.Reader { return io.MultiReader(bytes.NewReader(b)) }

func TestWriteMatchesReference(t *testing.T) {
	for name, g := range ioCases(t) {
		if got, want := mustWrite(t, g), writeReference(g); !bytes.Equal(got, want) {
			t.Errorf("%s: Write produced %d bytes that differ from the reference's %d", name, len(got), len(want))
		}
	}
}

func TestReadFromMatchesReference(t *testing.T) {
	for name, g := range ioCases(t) {
		raw := writeReference(g)
		want, err := readFromReference(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		requireSameGraph(t, want, g)
		readers := map[string]io.Reader{
			"sized":  bytes.NewReader(raw),
			"hidden": hidden(raw),
		}
		if len(raw) < 1<<20 {
			readers["one byte"] = iotest.OneByteReader(bytes.NewReader(raw))
		}
		for kind, r := range readers {
			got, err := ReadFrom(r)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, kind, err)
			}
			requireSameGraph(t, got, want)
			if err := got.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", name, kind, err)
			}
		}
	}
}

// Damaged inputs: the bulk reader accepts exactly what the reference
// accepts, and reads the same graph when both do.
func TestReadFromDamagedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	raw := writeReference(randomGraph(rng, 5, 60, 4))
	check := func(what string, b []byte) {
		t.Helper()
		want, refErr := readFromReference(bytes.NewReader(b))
		for kind, r := range map[string]io.Reader{"sized": bytes.NewReader(b), "hidden": hidden(b)} {
			got, err := ReadFrom(r)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s/%s: err %v, reference err %v", what, kind, err, refErr)
			}
			if err == nil {
				requireSameGraph(t, got, want)
			} else if errors.Is(refErr, ErrCorrupt) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s/%s: err %v is neither corrupt nor truncated (reference: %v)", what, kind, err, refErr)
			}
		}
	}
	for cut := 0; cut < len(raw); cut++ {
		check(fmt.Sprintf("cut at %d", cut), raw[:cut])
	}
	for i := 0; i < 2000; i++ {
		b := bytes.Clone(raw)
		at := rng.Intn(len(b))
		b[at] ^= byte(1 << rng.Intn(8))
		check(fmt.Sprintf("bit flip in byte %d", at), b)
	}
	// Trailing bytes are not the corpus's business.
	check("trailing bytes", append(bytes.Clone(raw), 1, 2, 3, 4, 5))
}

func TestCorpusRoundTrip(t *testing.T) {
	g := twoSourceFixture(t)
	got, err := ReadFrom(bytes.NewReader(mustWrite(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	requireSameGraph(t, got, g)
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCorpusReadErrors(t *testing.T) {
	raw := mustWrite(t, twoSourceFixture(t))

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte{}, raw...)
		bad[0] ^= 0xFF
		if _, err := ReadFrom(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for cut := 0; cut < len(raw); cut++ {
			for kind, r := range map[string]io.Reader{"sized": bytes.NewReader(raw[:cut]), "hidden": hidden(raw[:cut])} {
				if _, err := ReadFrom(r); !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Errorf("truncation at %d (%s): err = %v", cut, kind, err)
				}
			}
		}
	})
	t.Run("dangling link", func(t *testing.T) {
		bad := append([]byte{}, raw...)
		bad[len(bad)-1] = 0x7F // last link points far out of range
		bad[len(bad)-2] = 0x7F
		if _, err := ReadFrom(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v", err)
		}
	})
}

// header returns a 32-byte corpus header declaring the given counts.
func header(sources, pages, links uint64) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, ioMagic)
	b = le.AppendUint32(b, ioVersion)
	b = le.AppendUint64(b, sources)
	b = le.AppendUint64(b, pages)
	return le.AppendUint64(b, links)
}

// A count of 2³¹ does not fit an int32 ID; the guard used to let exactly
// that value through.
func TestReadFromRejectsCountsPastInt32(t *testing.T) {
	for _, h := range [][]byte{
		header(math.MaxInt32+1, 0, 0),
		header(1, math.MaxInt32+1, 0),
		header(1, 1, math.MaxInt32+1),
		header(math.MaxUint64, 0, 0),
	} {
		if _, err := ReadFrom(bytes.NewReader(h)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("header % x: err = %v", h[8:], err)
		}
	}
}

// allocatedBy reports the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A header is a claim, not a budget: the largest counts the guard admits,
// with no body behind them, fail without the reader having allocated for
// them — whether or not the input says how short it is.
func TestReadFromHostileHeaderAllocatesLittle(t *testing.T) {
	h := header(1, math.MaxInt32, math.MaxInt32)
	// The one label, empty, and enough zero words that the reader is
	// mid-section, arrays growing, when the input runs out.
	body := append(bytes.Clone(h), make([]byte, 4+ioBufBytes+ioBufBytes/2)...)
	for name, open := range map[string]func() io.Reader{
		"sized":            func() io.Reader { return bytes.NewReader(h) },
		"sized with body":  func() io.Reader { return bytes.NewReader(body) },
		"hidden":           func() io.Reader { return hidden(h) },
		"hidden with body": func() io.Reader { return hidden(body) },
		"hidden one byte":  func() io.Reader { return iotest.OneByteReader(bytes.NewReader(body)) },
	} {
		var err error
		got := allocatedBy(func() { _, err = ReadFrom(open()) })
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v, want truncation", name, err)
		}
		if got >= 1<<20 {
			t.Errorf("%s: allocated %d bytes for a %d-byte input", name, got, len(body))
		}
	}
}

// A regular file is a sized input through Stat and Seek: the header is
// checked against what is left of the file from the current offset, and
// ReadFile reports what it read.
func TestReadFromFile(t *testing.T) {
	g := twoSourceFixture(t)
	raw := mustWrite(t, g)
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		t.Helper()
		path := dir + "/" + name
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	got, st, err := ReadFile(write("fixture.pages", raw))
	if err != nil {
		t.Fatal(err)
	}
	requireSameGraph(t, got, g)
	if st.Bytes != int64(len(raw)) || st.Pages != 3 || st.Links != 3 || st.Sources != 2 || st.Seconds <= 0 {
		t.Errorf("load stats %+v for a %d-byte fixture", st, len(raw))
	}
	if line := st.String(); !strings.Contains(line, "fixture.pages") || !strings.Contains(line, "MB/s") {
		t.Errorf("load line %q", line)
	}

	f, err := os.Open(write("offset.pages", append([]byte("0123456789"), raw...)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(10, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if got, err = ReadFrom(f); err != nil {
		t.Fatal(err)
	}
	requireSameGraph(t, got, g)

	hostile := write("hostile.pages", header(1, math.MaxInt32, math.MaxInt32))
	if n := allocatedBy(func() { _, _, err = ReadFile(hostile) }); !errors.Is(err, io.ErrUnexpectedEOF) || n >= 1<<20 {
		t.Errorf("hostile file: err %v, %d bytes allocated", err, n)
	}
	if _, _, err := ReadFile(dir + "/missing.pages"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: err %v", err)
	}
}

// Rows read from a corpus are views of one arena. Growing or replacing
// one must not reach its neighbours, and a clone must not reach the
// original — whether the graph is still in read form when it is touched
// or has already been materialized.
func TestReadFromRowsDoNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	src := randomGraph(rng, 4, 40, 5)
	raw := mustWrite(t, src)
	for _, materialized := range []bool{false, true} {
		read := func() *Graph {
			g, err := ReadFrom(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if g.start == nil {
				t.Fatal("ReadFrom returned a graph that is not in read form")
			}
			if materialized {
				g.materialize()
			}
			return g
		}
		requireOthersUnchanged := func(g *Graph, touched PageID) {
			t.Helper()
			for p := range PageID(src.NumPages()) {
				if p != touched && !slices.Equal(g.OutLinks(p), src.OutLinks(p)) {
					t.Fatalf("touching row %d changed row %d: %v, was %v", touched, p, g.OutLinks(p), src.OutLinks(p))
				}
			}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		for p := PageID(0); int(p) < src.NumPages(); p++ {
			g := read()
			g.AddLink(p, 7)
			g.AddLink(p, 9)
			if want := append(slices.Clone(src.OutLinks(p)), 7, 9); !slices.Equal(g.OutLinks(p), want) {
				t.Fatalf("AddLink row %d = %v, want %v", p, g.OutLinks(p), want)
			}
			requireOthersUnchanged(g, p)

			for _, links := range [][]PageID{nil, {1}, {3, 3, 5, 8, 13, 21, 34, 2, 1, 1, 0}} {
				g = read()
				if err := g.SetOutLinks(p, links); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(g.OutLinks(p), links) {
					t.Fatalf("SetOutLinks row %d = %v, want %v", p, g.OutLinks(p), links)
				}
				requireOthersUnchanged(g, p)
				// And growing the replaced row stays inside it.
				g.AddLink(p, 11)
				requireOthersUnchanged(g, p)
			}
		}

		g := read()
		c := g.Clone()
		requireSameGraph(t, c, src)
		for p := range PageID(c.NumPages()) {
			row := c.OutLinks(p)
			for i := range row {
				row[i] = p // scribble over the clone's storage
			}
		}
		c.sourceOf[0] ^= 1
		c.sourceName[0] = "scribbled"
		requireSameGraph(t, g, src)
	}
}

// A graph in read form answers every query and survives every mutation
// exactly as the reference reader's mutable graph does; only a mutation
// takes it out of read form.
func TestReadGraphMutatesLikeReference(t *testing.T) {
	requireReadForm := func(g *Graph, what string) {
		t.Helper()
		if g.start == nil {
			t.Fatalf("%s: graph left read form", what)
		}
	}
	for name, src := range ioCases(t) {
		raw := writeReference(src)
		n := PageID(src.NumPages())
		for _, op := range []struct {
			name   string
			mutate func(g *Graph) *Graph // returns the graph to compare
		}{
			{"AddPage", func(g *Graph) *Graph {
				if g.NumSources() > 0 {
					p := g.AddPage(SourceID(g.NumSources() - 1))
					g.AddLink(p, p)
					g.AddLink(0, p)
				}
				return g
			}},
			{"AddLink", func(g *Graph) *Graph {
				if n > 1 {
					g.AddLink(0, n-1) // row 0's arena view ends at row 1's degree word
					g.AddLink(0, 0)
					g.AddLink(n-2, 1)
				}
				return g
			}},
			{"SetOutLinks", func(g *Graph) *Graph {
				if n > 0 {
					if err := g.SetOutLinks(n/2, []PageID{0, n - 1, 0}); err != nil {
						t.Fatal(err)
					}
					g.AddLink(n/2, n/2)
				}
				return g
			}},
			{"Clone", func(g *Graph) *Graph {
				c := g.Clone()
				if g.start != nil {
					requireReadForm(c, name+"/Clone")
				}
				if n > 0 {
					c.AddLink(n-1, 0)
					if err := c.SetOutLinks(0, []PageID{n - 1}); err != nil {
						t.Fatal(err)
					}
				}
				c.AddSource("cloned.example")
				return c
			}},
			{"Regroup", func(g *Graph) *Graph {
				out, _, err := g.Regroup(func(label string) string { return label[:min(len(label), 2)] })
				if err != nil {
					t.Fatal(err)
				}
				return out
			}},
		} {
			want, err := readFromReference(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ReadFrom(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			requireReadForm(got, name)
			gotOut, wantOut := op.mutate(got), op.mutate(want)
			requireSameGraph(t, gotOut, wantOut)
			if err := gotOut.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", name, op.name, err)
			}
			if !bytes.Equal(mustWrite(t, gotOut), writeReference(wantOut)) {
				t.Fatalf("%s/%s: Write differs from the reference", name, op.name)
			}
			if op.name == "Clone" || op.name == "Regroup" {
				requireReadForm(got, name+"/"+op.name+" source")
				requireSameGraph(t, got, src) // the original is untouched
			}
		}

		// Queries, conversion and Write read the read form in place.
		g, err := ReadFrom(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.ToGraph(), src.ToGraph()) {
			t.Fatalf("%s: ToGraph differs", name)
		}
		if !bytes.Equal(mustWrite(t, g), raw) {
			t.Fatalf("%s: Write of the read form differs from the bytes read", name)
		}
		for s := range SourceID(g.NumSources()) {
			if !slices.Equal(g.PagesOf(s), src.PagesOf(s)) {
				t.Fatalf("%s: PagesOf(%d) differs", name, s)
			}
		}
		if !slices.Equal(g.PageCounts(), src.PageCounts()) || g.Validate() != nil {
			t.Fatalf("%s: PageCounts or Validate differs", name)
		}
		requireReadForm(g, name+" after queries")
	}
}

// The decoding path a big-endian host takes reads the same graphs as the
// one-copy path.
func TestReadFromDecodePathMatchesOneCopy(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("the host decodes; there is no one-copy path to compare")
	}
	for name, src := range ioCases(t) {
		raw := mustWrite(t, src)
		for kind, open := range map[string]func() io.Reader{
			"sized":  func() io.Reader { return bytes.NewReader(raw) },
			"hidden": func() io.Reader { return hidden(raw) },
		} {
			oneCopy, err := ReadFrom(open())
			if err != nil {
				t.Fatalf("%s/%s: %v", name, kind, err)
			}
			hostLittleEndian = false
			decoded, err := ReadFrom(open())
			hostLittleEndian = true
			if err != nil {
				t.Fatalf("%s/%s decoded: %v", name, kind, err)
			}
			requireSameGraph(t, decoded, oneCopy)
			requireSameGraph(t, decoded, src)
			if !slices.Equal(decoded.arena, oneCopy.arena) || !slices.Equal(decoded.start, oneCopy.start) {
				t.Fatalf("%s/%s: the read forms differ", name, kind)
			}
		}
	}
}

// The range checks run on several workers when a corpus is large enough,
// and report the failure at the lowest page, the one the serial
// reference reports, at any GOMAXPROCS.
func TestReadFromErrorAtLowestPage(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	src := randomGraph(rng, 40, 3*checkWords, 3) // both word sections past 2·checkWords
	raw := mustWrite(t, src)
	pages := src.NumPages()
	le := binary.LittleEndian
	sourceAt := ioHeaderLen
	for _, label := range src.sourceName {
		sourceAt += 4 + len(label)
	}
	// degreeAt[p] is the byte offset of page p's degree word.
	degreeAt := make([]int, pages)
	at := sourceAt + 4*pages
	for p := range degreeAt {
		degreeAt[p] = at
		at += 4 * (1 + len(src.OutLinks(PageID(p))))
	}
	withLinks := func(from int) int { // the first page at or after from with a link
		for len(src.OutLinks(PageID(from))) == 0 {
			from++
		}
		return from
	}
	type patch struct{ at, word int }
	badSource := func(p int) patch { return patch{sourceAt + 4*p, 1000 + p} }
	badLink := func(p int) patch { return patch{degreeAt[p] + 4, pages + p} }
	overflow := func(p int) patch { return patch{degreeAt[p], math.MaxInt32} }
	early, mid, late := withLinks(100), withLinks(pages/2+7), withLinks(pages-50)
	for name, patches := range map[string][]patch{
		"sources":               {badSource(late), badSource(mid), badSource(early)},
		"links":                 {badLink(late), badLink(mid), badLink(early)},
		"links in later ranges": {badLink(late), badLink(mid)},
		"link before overflow":  {badLink(mid), overflow(late)},
		"overflow before link":  {overflow(mid), badLink(late)},
		"source before link":    {badLink(early), badSource(late)},
		"link count short":      {patch{ioHeaderLen - 8, int(src.NumLinks()) + 1}},
		"short count, bad link": {patch{ioHeaderLen - 8, int(src.NumLinks()) + 1}, badLink(late)},
	} {
		// Four trailing bytes, so a link count raised by one still finds
		// its adjacency words and ends short of the declared count.
		b := append(bytes.Clone(raw), 0, 0, 0, 0)
		for _, p := range patches {
			le.PutUint32(b[p.at:], uint32(p.word))
		}
		_, refErr := readFromReference(bytes.NewReader(b))
		if refErr == nil {
			t.Fatalf("%s: the reference accepts the damage", name)
		}
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			_, err := ReadFrom(bytes.NewReader(b))
			runtime.GOMAXPROCS(prev)
			if err == nil || err.Error() != refErr.Error() {
				t.Fatalf("%s at GOMAXPROCS %d: err %v, the reference's %v", name, procs, err, refErr)
			}
		}
	}
}

// FuzzReadFrom: arbitrary bytes never panic; whatever is accepted is a
// valid graph whose serialization is exactly the bytes consumed; and the
// reader allocates in proportion to the input, not to what it declares.
func FuzzReadFrom(f *testing.F) {
	// testdata/fuzz/FuzzReadFrom holds the rest of the seeds: truncations
	// of this fixture and headers that lie about it.
	f.Add(writeReference(twoSourceFixture(f)))
	f.Fuzz(func(t *testing.T, b []byte) {
		for kind, r := range map[string]io.Reader{"sized": bytes.NewReader(b), "hidden": hidden(b)} {
			var g *Graph
			var err error
			// Worst case is an unsized input of empty labels: 16 bytes
			// of string header per 4 of input, in an array that doubles
			// (at most 2x too large, its discarded generations as much
			// again) — 16x. 1 MiB covers the buffer and first capacities.
			if got, limit := allocatedBy(func() { g, err = ReadFrom(r) }), uint64(1<<20+24*len(b)); got > limit {
				t.Fatalf("%s: allocated %d bytes for a %d-byte input (limit %d)", kind, got, len(b), limit)
			}
			if err != nil {
				continue
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("%s: accepted an invalid graph: %v", kind, err)
			}
			out := mustWrite(t, g)
			if len(out) > len(b) || !bytes.Equal(out, b[:len(out)]) {
				t.Fatalf("%s: Write gave %d bytes that are not a prefix of the %d-byte input", kind, len(out), len(b))
			}
			if n := PageID(g.NumPages()); n > 0 {
				g.AddLink(0, n-1)
				if err := g.SetOutLinks(n-1, []PageID{0, n / 2, 0}); err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				if err := g.Validate(); err != nil {
					t.Fatalf("%s: mutated read graph is invalid: %v", kind, err)
				}
			}
		}
	})
}
