package linalg

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// durableStyleWriter is the writer stack durable.WriteFile puts under a
// slab section: a byte count and a CRC-32C over a bufio.Writer, reached
// through the io.Writer interface.
type durableStyleWriter struct {
	w   *bufio.Writer
	crc uint32
	n   int64
}

var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

func (d *durableStyleWriter) Write(p []byte) (int, error) {
	n, err := d.w.Write(p)
	d.crc = crc32.Update(d.crc, castagnoliTable, p[:n])
	d.n += int64(n)
	return n, err
}

// sectionRows is the row-length mix the writer must handle without
// allocating: rows that coalesce many to a batch, and one that nearly
// fills the batch of the 4-byte types and bypasses it for the 8-byte ones.
var sectionRows = []int{1, 7, 5000}

func sectionWriterAllocs[T SlabElem](t *testing.T, name string) {
	t.Helper()
	for _, n := range sectionRows {
		row := make([]T, n)
		for i := range row {
			row[i] = T(i + 1)
		}
		var w io.Writer = &countingWriter{w: &durableStyleWriter{w: bufio.NewWriter(io.Discard)}}
		sw := NewSectionWriter[T](w)
		sw.Append(row[0]) // the batch buffer is the writer's one allocation
		allocs := testing.AllocsPerRun(200, func() {
			if err := sw.Write(row); err != nil {
				t.Fatal(err)
			}
			sw.Append(row[0])
		})
		if err := sw.Flush(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("%s rows of %d: %v allocs per row, want 0", name, n, allocs)
		}
	}
}

// TestSlabSectionWriterZeroAlloc pins the bug class PR 12 removed: the
// old staging helpers heap-allocated 32 KiB per call because their
// "stack" buffer escaped through io.Writer, and the slab build called
// them once per row. Both host paths are held to zero per row.
func TestSlabSectionWriterZeroAlloc(t *testing.T) {
	for _, le := range []bool{true, false} {
		if le && !hostLittleEndian {
			continue // aliasing is only legal on a little-endian host
		}
		func() {
			defer func(v bool) { hostLittleEndian = v }(hostLittleEndian)
			hostLittleEndian = le
			sectionWriterAllocs[int64](t, "int64")
			sectionWriterAllocs[int32](t, "int32")
			sectionWriterAllocs[float64](t, "float64")
			sectionWriterAllocs[float32](t, "float32")
		}()
	}
}

func sectionWriterBytes[T SlabElem](t *testing.T, name string, gen func(i int) T) {
	t.Helper()
	// Enough values to cross the batch buffer several times, fed through
	// every entry point in an irregular mix.
	xs := make([]T, 3*sectionChunkBytes/4+11)
	for i := range xs {
		xs[i] = gen(i)
	}
	var want bytes.Buffer
	if err := binary.Write(&want, binary.LittleEndian, xs); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	sw := NewSectionWriter[T](&got)
	rest := xs
	for step := 0; len(rest) > 0; step++ {
		k := min([]int{0, 1, 7, 5000, 1, 20000}[step%6], len(rest))
		if step%2 == 0 {
			if err := sw.Write(rest[:k]); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, x := range rest[:k] {
				sw.Append(x)
			}
		}
		rest = rest[k:]
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("%s (hostLittleEndian=%v): section bytes differ from encoding/binary", name, hostLittleEndian)
	}
}

// TestSlabSectionWriterBytes checks the aliasing path and the portable
// staging path against encoding/binary, element type by element type.
func TestSlabSectionWriterBytes(t *testing.T) {
	for _, le := range []bool{true, false} {
		if le && !hostLittleEndian {
			continue
		}
		func() {
			defer func(v bool) { hostLittleEndian = v }(hostLittleEndian)
			hostLittleEndian = le
			sectionWriterBytes(t, "int64", func(i int) int64 { return int64(i)*0x0102030405 - 7 })
			sectionWriterBytes(t, "int32", func(i int) int32 { return int32(i)*0x010203 - 7 })
			sectionWriterBytes(t, "float64", func(i int) float64 { return 1 / float64(i+1) })
			sectionWriterBytes(t, "float32", func(i int) float32 { return 1 / float32(i+1) })
		}()
	}
}

type failAfter struct{ left int }

var errSectionSink = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.left -= len(p); f.left < 0 {
		return 0, errSectionSink
	}
	return len(p), nil
}

// TestSlabSectionWriterStickyError: the first failed write is what every
// later call and Flush report, and nothing more reaches the sink.
func TestSlabSectionWriterStickyError(t *testing.T) {
	sink := &failAfter{left: sectionChunkBytes}
	sw := NewSectionWriter[int32](sink)
	row := make([]int32, 100)
	var err error
	for i := 0; i < 1000 && err == nil; i++ {
		err = sw.Write(row)
	}
	if !errors.Is(err, errSectionSink) {
		t.Fatalf("Write error = %v, want the sink's", err)
	}
	left := sink.left
	sw.Append(1)
	if err := sw.Write(make([]int32, 3*sectionChunkBytes)); !errors.Is(err, errSectionSink) {
		t.Fatalf("Write after failure = %v", err)
	}
	if err := sw.Flush(); !errors.Is(err, errSectionSink) {
		t.Fatalf("Flush = %v, want the sink's error", err)
	}
	if sink.left != left {
		t.Fatal("writes reached the sink after the first failure")
	}
}
