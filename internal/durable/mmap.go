package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// Mapped is a read-only view of a file committed by WriteFile, backed by
// a memory mapping where the platform supports one (mmap_unix.go) and by
// an ordinary heap read elsewhere (mmap_other.go). The two backings are
// indistinguishable through this API except that only the mapped form
// can shed resident pages via Release.
//
// Mapped is the open/validate seam the out-of-core slab machinery builds
// on: a caller maps a multi-gigabyte artifact, verifies its CRC trailer
// in bounded-residency chunks, and then consumes payload sections in
// place without ever holding the file in the heap.
type Mapped struct {
	path   string
	data   []byte // full file bytes, trailer included
	mapped bool   // data is an OS mapping that Close must unmap
}

// OpenMapped opens path read-only as a Mapped. The underlying file
// descriptor is closed before returning (a mapping survives the close),
// so a Mapped holds no descriptor — only address space.
//
// Mapping goes through the OS directly rather than the FS seam: an FS
// File is a stream, not a descriptor, and every fault-injection test of
// the commit protocol exercises the write path. Corruption on the read
// path is covered by VerifyPayload against on-disk bytes.
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return &Mapped{path: path}, nil
	}
	if int64(int(size)) != size {
		return nil, fmt.Errorf("durable: %s: %d bytes exceeds the addressable mapping size", path, size)
	}
	data, mapped, err := mmapRO(f, size)
	if err != nil {
		return nil, fmt.Errorf("durable: %s: mmap: %w", path, err)
	}
	return &Mapped{path: path, data: data, mapped: mapped}, nil
}

// verifyChunkDefault bounds the resident window of a chunked trailer
// verification: 4 MiB hashes in a few milliseconds and keeps peak RSS of
// the verification pass three orders of magnitude under the file size.
const verifyChunkDefault = 4 << 20

// VerifyPayload checks the CRC32-C trailer frame exactly like Verify and
// returns the payload with the trailer stripped, but hashes the payload
// in chunkBytes-sized windows (<= 0 selects a 4 MiB default). When
// release is set, each window's pages are dropped from the resident set
// right after they are hashed — verification of an arbitrarily large
// file then costs one window of residency, not the whole file, and the
// dropped pages re-fault from the page cache (or disk) when a consumer
// later reads them. Errors are *CorruptError carrying the path.
func (m *Mapped) VerifyPayload(chunkBytes int64, release bool) ([]byte, error) {
	if chunkBytes <= 0 {
		chunkBytes = verifyChunkDefault
	}
	data := m.data
	if len(data) < TrailerSize {
		return nil, &CorruptError{
			Path:   m.path,
			Offset: int64(len(data)),
			Reason: fmt.Sprintf("file is %d bytes, shorter than the %d-byte trailer", len(data), TrailerSize),
		}
	}
	le := binary.LittleEndian
	off := int64(len(data) - TrailerSize)
	trailer := data[off:]
	if got := le.Uint32(trailer[0:4]); got != trailerMagic {
		return nil, &CorruptError{
			Path:   m.path,
			Offset: off,
			Reason: fmt.Sprintf("bad trailer magic %#x (truncated or unframed file?)", got),
		}
	}
	if got := le.Uint64(trailer[4:12]); got != uint64(off) {
		return nil, &CorruptError{
			Path:   m.path,
			Offset: off + 4,
			Reason: fmt.Sprintf("trailer declares %d payload bytes, file holds %d", got, off),
		}
	}
	payload := data[:off]
	var crc uint32
	for lo := int64(0); lo < off; lo += chunkBytes {
		hi := lo + chunkBytes
		if hi > off {
			hi = off
		}
		crc = crc32.Update(crc, castagnoli, payload[lo:hi])
		if release {
			m.Release(lo, hi-lo)
		}
	}
	if want := le.Uint32(trailer[12:16]); crc != want {
		return nil, &CorruptError{
			Path:   m.path,
			Offset: off + 12,
			Reason: fmt.Sprintf("CRC32-C mismatch: payload hashes to %#x, trailer says %#x", crc, want),
		}
	}
	return payload, nil
}

// Release drops the resident pages that end inside data[off : off+n]
// from the process RSS. The bytes stay readable — a later access
// re-faults them from the page cache or disk — so Release is purely a
// residency hint. The range is clamped to the mapping; its start is
// rounded down to a page boundary and its end down as well, except at
// the mapping's end, where the final partial page goes too. A page that
// straddles two adjacent ranges is therefore released exactly once, by
// the range it ends in — never by the earlier one, whose neighbor may
// still be reading the page's tail. No-op on heap-backed views and
// out-of-range input.
func (m *Mapped) Release(off, n int64) {
	if b := m.releaseSpan(off, n); b != nil {
		madviseRelease(b)
	}
}

// AdviseSequential hints that the mapping will be read front to back, so
// the kernel can read ahead aggressively and drop behind. No-op where
// unsupported.
func (m *Mapped) AdviseSequential() {
	if m.mapped && len(m.data) > 0 {
		madviseSequential(m.data)
	}
}

// AdviseWillNeed hints that data[off : off+n] is about to be read,
// scheduling readahead for it. The range is clamped to the mapping and
// its start rounded down to a page boundary. No-op where unsupported.
func (m *Mapped) AdviseWillNeed(off, n int64) {
	if start, end := m.pageSpan(off, n); end > start {
		madviseWillNeed(m.data[start:end])
	}
}

// pageSize is the host page size, the granularity of every madvise span.
var pageSize = int64(os.Getpagesize())

// pageSpan clamps [off, off+n) to the mapping and aligns its start down
// to a page boundary. The span is empty (end == start) when the request
// is empty, out of range, or the view is heap-backed.
func (m *Mapped) pageSpan(off, n int64) (start, end int64) {
	size := int64(len(m.data))
	if !m.mapped || n <= 0 || off < 0 || off >= size {
		return 0, 0
	}
	end = off + n
	if end > size || end < off {
		end = size
	}
	return off - off%pageSize, end
}

// releaseSpan is the part of data Release(off, n) drops: pageSpan with
// the end rounded down to a page boundary too, unless it reaches the
// mapping's end — never a page that a following range owns. nil when
// that leaves nothing.
func (m *Mapped) releaseSpan(off, n int64) []byte {
	start, end := m.pageSpan(off, n)
	if end < int64(len(m.data)) {
		end -= end % pageSize
	}
	if end <= start {
		return nil
	}
	return m.data[start:end]
}

// Close releases the mapping. The slices previously returned by Data and
// VerifyPayload become invalid. Idempotent.
func (m *Mapped) Close() error {
	if !m.mapped {
		m.data = nil
		return nil
	}
	data := m.data
	m.data = nil
	m.mapped = false
	return munmapRO(data)
}
