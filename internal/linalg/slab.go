package linalg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"sourcerank/internal/durable"
)

// This file implements the on-disk CSR slab format behind the out-of-core
// solve path. A slab is a durable-committed file (CRC32-C trailer frame,
// crash-safe rename) whose payload lays the three CSR arrays out as raw
// little-endian sections:
//
//	offset  size        field
//	0       4           magic "SRSL"
//	4       4           version (1)
//	8       4           value kind: 0 = float64, 1 = float32
//	12      4           reserved, must be zero
//	16      8           rows
//	24      8           cols
//	32      8           nnz
//	40      8×6         (offset, byteLength) pairs for the RowPtr, Cols,
//	                    and Vals sections, in that order
//	88      …           sections; Vals is 8-byte aligned via zero padding
//
// Section offsets are 8-byte aligned relative to the payload start, and
// the payload starts at file offset 0 with the trailer at the end — so a
// page-aligned mapping of the file can reinterpret the sections in place
// as []int64/[]int32/[]float64 on little-endian hosts (the common case;
// big-endian or misaligned views fall back to a copy-decode). Opening a
// slab therefore costs address space, not heap: the matrix arrays alias
// the mapping, and the fused kernels stream row stripes through the page
// cache, under a residency budget dropping the pages behind themselves a
// budget-sized window at a time (see slabResidency).
const (
	slabMagic      = 0x5352534C // "SRSL"
	slabVersion    = 1
	slabHeaderSize = 88
)

// ErrSlabFormat is the sentinel matched by errors.Is for every
// *SlabFormatError reported by the slab decoder.
var ErrSlabFormat = errors.New("linalg: invalid slab file")

// SlabFormatError reports a slab payload that failed header or section
// validation, with the payload byte offset at which the check failed.
type SlabFormatError struct {
	Offset int64
	Reason string
}

func (e *SlabFormatError) Error() string {
	return fmt.Sprintf("linalg: invalid slab at offset %d: %s", e.Offset, e.Reason)
}

func (e *SlabFormatError) Is(target error) bool { return target == ErrSlabFormat }

func slabErrf(off int64, format string, args ...any) error {
	return &SlabFormatError{Offset: off, Reason: fmt.Sprintf(format, args...)}
}

// slabSectionLens returns the byte lengths of the three sections plus
// the alignment padding between Cols and Vals.
func slabSectionLens(rows int, nnz int64, valW int64) (rowPtrLen, colsLen, pad, valsLen int64) {
	rowPtrLen = 8 * (int64(rows) + 1)
	colsLen = 4 * nnz
	end := int64(slabHeaderSize) + rowPtrLen + colsLen
	pad = (8 - end%8) % 8
	valsLen = valW * nnz
	return
}

// SlabPayloadBytes returns the payload size of a slab holding a
// rows-row matrix with nnz stored entries at the given precision.
func SlabPayloadBytes(rows int, nnz int64, prec Precision) int64 {
	rp, cl, pad, vl := slabSectionLens(rows, nnz, prec.valWidth())
	return slabHeaderSize + rp + cl + pad + vl
}

// SlabFileBytes is SlabPayloadBytes plus the durable trailer frame: the
// exact on-disk size of a committed slab. cmd/graphstats uses it to
// project slab sizes before a build.
func SlabFileBytes(rows int, nnz int64, prec Precision) int64 {
	return SlabPayloadBytes(rows, nnz, prec) + durable.TrailerSize
}

// slabHeader is the decoded header of a slab payload, with the three
// sections sliced out of the payload (bounds-checked by parseSlabHeader,
// so indexing them cannot escape the payload).
type slabHeader struct {
	rows    int
	colsN   int
	nnz     int64
	valKind uint32
	rowPtr  []byte
	cols    []byte
	vals    []byte
	// section offsets relative to the payload start, for residency math
	rowPtrOff, colsOff, valsOff int64
}

// parseSlabFixed decodes and validates the fixed fields of a slab header
// — everything before the section table — from its first slabHeaderSize
// bytes. ReadSlabInfo stops here; parseSlabHeader goes on to the sections.
func parseSlabFixed(hdr []byte) (slabHeader, error) {
	var h slabHeader
	if len(hdr) < slabHeaderSize {
		return h, slabErrf(int64(len(hdr)), "payload is %d bytes, shorter than the %d-byte header", len(hdr), slabHeaderSize)
	}
	le := binary.LittleEndian
	if got := le.Uint32(hdr[0:]); got != slabMagic {
		return h, slabErrf(0, "bad magic %#x, want %#x", got, slabMagic)
	}
	if got := le.Uint32(hdr[4:]); got != slabVersion {
		return h, slabErrf(4, "unsupported version %d", got)
	}
	h.valKind = le.Uint32(hdr[8:])
	if h.valKind > 1 {
		return h, slabErrf(8, "unknown value kind %d", h.valKind)
	}
	if got := le.Uint32(hdr[12:]); got != 0 {
		return h, slabErrf(12, "reserved field is %#x, want 0", got)
	}
	rows64, cols64, nnz64 := le.Uint64(hdr[16:]), le.Uint64(hdr[24:]), le.Uint64(hdr[32:])
	if rows64 > math.MaxInt32 {
		return h, slabErrf(16, "rows %d exceeds the supported maximum", rows64)
	}
	if cols64 > math.MaxInt32 {
		return h, slabErrf(24, "cols %d exceeds the int32 column-index range", cols64)
	}
	if nnz64 > math.MaxInt64/8 {
		return h, slabErrf(32, "nnz %d exceeds the supported maximum", nnz64)
	}
	h.rows, h.colsN, h.nnz = int(rows64), int(cols64), int64(nnz64)
	return h, nil
}

// parseSlabHeader validates a slab payload's header and table of
// contents against the payload bounds. It is pure on its input — no
// allocation proportional to header-declared sizes, no panics on
// arbitrary bytes (the fuzz target's contract): every declared dimension
// is cross-checked against the section lengths, which are themselves
// checked against len(payload), before anything is sliced.
func parseSlabHeader(payload []byte) (slabHeader, error) {
	h, err := parseSlabFixed(payload)
	if err != nil {
		return h, err
	}
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(payload[off:]) }
	wantRP, wantCols, _, wantVals := slabSectionLens(h.rows, h.nnz, Precision(h.valKind).valWidth())
	plen := uint64(len(payload))
	section := func(fieldOff int, want int64, align uint64, name string) ([]byte, int64, error) {
		off, length := u64(fieldOff), u64(fieldOff+8)
		if length != uint64(want) {
			return nil, 0, slabErrf(int64(fieldOff+8), "%s section is %d bytes, want %d for the declared dimensions", name, length, want)
		}
		if off < slabHeaderSize {
			return nil, 0, slabErrf(int64(fieldOff), "%s section offset %d overlaps the header", name, off)
		}
		if off%align != 0 {
			return nil, 0, slabErrf(int64(fieldOff), "%s section offset %d is not %d-byte aligned", name, off, align)
		}
		if off > plen || length > plen-off {
			return nil, 0, slabErrf(int64(fieldOff), "%s section [%d, %d+%d) escapes the %d-byte payload", name, off, off, length, plen)
		}
		return payload[off : off+length], int64(off), nil
	}
	if h.rowPtr, h.rowPtrOff, err = section(40, wantRP, 8, "rowptr"); err != nil {
		return h, err
	}
	if h.cols, h.colsOff, err = section(56, wantCols, 4, "cols"); err != nil {
		return h, err
	}
	if h.vals, h.valsOff, err = section(72, wantVals, 8, "vals"); err != nil {
		return h, err
	}
	return h, nil
}

// ---------------------------------------------------------------------------
// Writing

// SlabSections describes one slab file for WriteSlabFile: the matrix
// dimensions plus one callback per section. Each callback must write
// exactly the section's byte length (8·(Rows+1) for RowPtr, 4·NNZ for
// ColIdx, valW·NNZ for Values) in little-endian order; WriteSlabFile
// counts the bytes and fails the commit on a mismatch. The callback form
// lets builders stream sections from sources that never exist as in-RAM
// arrays — the webgraph decode-to-slab writer emits a billion-edge Cols
// section bucket by bucket through a bounded buffer.
type SlabSections struct {
	Rows   int
	Cols   int
	NNZ    int64
	RowPtr func(io.Writer) error
	ColIdx func(io.Writer) error
	Values func(io.Writer) error
}

// WriteSlabFile commits one slab file through the durable protocol:
// header, streamed sections, CRC trailer, fsync, atomic rename. On any
// error (including a section writing the wrong byte count) the target
// path is left untouched.
func WriteSlabFile(fsys durable.FS, path string, prec Precision, s SlabSections) error {
	if s.Rows < 0 || s.Cols < 0 || s.NNZ < 0 {
		return ErrBadShape
	}
	if s.Cols > math.MaxInt32 {
		return fmt.Errorf("linalg: slab cols %d exceeds the int32 column-index range", s.Cols)
	}
	valW := prec.valWidth()
	rowPtrLen, colsLen, pad, valsLen := slabSectionLens(s.Rows, s.NNZ, valW)
	rowPtrOff := int64(slabHeaderSize)
	colsOff := rowPtrOff + rowPtrLen
	valsOff := colsOff + colsLen + pad
	var hdr [slabHeaderSize]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], slabMagic)
	le.PutUint32(hdr[4:], slabVersion)
	le.PutUint32(hdr[8:], uint32(prec))
	for i, v := range []int64{int64(s.Rows), int64(s.Cols), s.NNZ, rowPtrOff, rowPtrLen, colsOff, colsLen, valsOff, valsLen} {
		le.PutUint64(hdr[16+8*i:], uint64(v))
	}
	return durable.WriteFile(fsys, path, func(w io.Writer) error {
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if err := writeSlabSection(w, s.RowPtr, rowPtrLen, "rowptr"); err != nil {
			return err
		}
		if err := writeSlabSection(w, s.ColIdx, colsLen, "cols"); err != nil {
			return err
		}
		if pad > 0 {
			var zeros [8]byte
			if _, err := w.Write(zeros[:pad]); err != nil {
				return err
			}
		}
		return writeSlabSection(w, s.Values, valsLen, "vals")
	})
}

func writeSlabSection(w io.Writer, write func(io.Writer) error, want int64, name string) error {
	if write == nil {
		if want == 0 {
			return nil
		}
		return fmt.Errorf("linalg: slab %s section has no writer for %d bytes", name, want)
	}
	cw := &countingWriter{w: w}
	if err := write(cw); err != nil {
		return err
	}
	if cw.n != want {
		return fmt.Errorf("linalg: slab %s section wrote %d bytes, want %d", name, cw.n, want)
	}
	return nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// SlabElem is the set of element types a slab section stores.
type SlabElem interface {
	int64 | int32 | float64 | float32
}

// sectionChunkBytes sizes the batch buffer a SectionWriter owns: large
// enough to amortize the per-Write cost of the durable stack beneath it
// (byte count, CRC, bufio), small next to any section worth streaming.
const sectionChunkBytes = 32 << 10

// SectionWriter streams one slab section of element type T to w as raw
// little-endian values — the write-side mirror of aliasSlab. On
// little-endian hosts a slice's own memory is handed to w (no staging,
// no copy beyond w's own); elsewhere elements are byte-swapped through a
// staging buffer the writer owns for the life of the section. Rows
// shorter than the batch buffer and single appended values are coalesced
// into it, so a section of many short rows costs one w.Write per
// sectionChunkBytes, and nothing is allocated per row or per value.
// Errors are sticky: after the first failed write every call is a no-op
// and Flush reports it. encoding/binary.Write is avoided deliberately —
// it reflects per call and allocates a full-size staging copy, which
// matters when a section is tens of gigabytes.
type SectionWriter[T SlabElem] struct {
	w     io.Writer
	err   error
	buf   []T // pending batch, allocated on first use
	n     int
	stage []byte // byte-order staging, big-endian hosts only
}

// NewSectionWriter returns a SectionWriter over w. Call Flush once the
// section is complete.
func NewSectionWriter[T SlabElem](w io.Writer) *SectionWriter[T] {
	return &SectionWriter[T]{w: w}
}

// Append adds one value to the section.
func (s *SectionWriter[T]) Append(x T) {
	if s.n == len(s.buf) {
		s.makeRoom()
	}
	s.buf[s.n] = x
	s.n++
}

// Write adds xs to the section and returns the writer's sticky error, so
// a row-at-a-time producer can stop early. xs is not retained.
func (s *SectionWriter[T]) Write(xs []T) error {
	if len(xs) > len(s.buf)-s.n {
		if len(xs) >= s.chunk() {
			s.Flush()
			s.emit(xs)
			return s.err
		}
		s.makeRoom()
	}
	s.n += copy(s.buf[s.n:], xs)
	return s.err
}

// Flush writes out the pending batch and returns the first error any
// call on s met.
func (s *SectionWriter[T]) Flush() error {
	s.emit(s.buf[:s.n])
	s.n = 0
	return s.err
}

// chunk is the batch buffer's length in elements.
func (s *SectionWriter[T]) chunk() int {
	var zero T
	return sectionChunkBytes / int(unsafe.Sizeof(zero))
}

// makeRoom empties the batch buffer, allocating it on first use.
func (s *SectionWriter[T]) makeRoom() {
	if s.buf == nil {
		s.buf = make([]T, s.chunk())
	}
	s.Flush()
}

// emit hands xs to the underlying writer in little-endian byte order.
func (s *SectionWriter[T]) emit(xs []T) {
	if s.err != nil || len(xs) == 0 {
		return
	}
	size := int(unsafe.Sizeof(xs[0]))
	if hostLittleEndian {
		_, s.err = s.w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*size))
		return
	}
	if s.stage == nil {
		s.stage = make([]byte, sectionChunkBytes)
	}
	le := binary.LittleEndian
	for len(xs) > 0 && s.err == nil {
		k := min(len(xs), len(s.stage)/size)
		for i := range xs[:k] {
			if size == 4 {
				le.PutUint32(s.stage[4*i:], *(*uint32)(unsafe.Pointer(&xs[i])))
			} else {
				le.PutUint64(s.stage[8*i:], *(*uint64)(unsafe.Pointer(&xs[i])))
			}
		}
		_, s.err = s.w.Write(s.stage[:k*size])
		xs = xs[k:]
	}
}

// WriteSlabCSR commits m to path as a slab at the given precision.
// Float32 narrows values entrywise exactly like NewCSR32 (round to
// nearest even), so a float32 slab of m round-trips to the same bits as
// the in-RAM float32 mirror.
func WriteSlabCSR(fsys durable.FS, path string, m *CSR, prec Precision) error {
	sections := SlabSections{
		Rows:   m.Rows,
		Cols:   m.ColsN,
		NNZ:    int64(m.NNZ()),
		RowPtr: func(w io.Writer) error { return WriteSection(w, m.RowPtr) },
		ColIdx: func(w io.Writer) error { return WriteSection(w, m.Cols) },
		Values: func(w io.Writer) error { return WriteSection(w, m.Vals) },
	}
	if prec == Float32 {
		sections.Values = func(w io.Writer) error {
			sw := NewSectionWriter[float32](w)
			for _, v := range m.Vals {
				sw.Append(float32(v))
			}
			return sw.Flush()
		}
	}
	return WriteSlabFile(fsys, path, prec, sections)
}

// WriteSection writes xs, already in RAM, as one whole section.
func WriteSection[T SlabElem](w io.Writer, xs []T) error {
	sw := SectionWriter[T]{w: w}
	sw.emit(xs)
	return sw.err
}

// ---------------------------------------------------------------------------
// Opening

// slabVerifyChunk bounds the resident window of the open-time CRC sweep.
const slabVerifyChunk = 4 << 20

// slabValidateChunkRows bounds the open-time structural sweep the same
// way: rows are validated in blocks, and in streaming mode each block's
// matrix pages are dropped right after checking.
const slabValidateChunkRows = 1 << 16

// SlabOpenOptions configures how a slab is opened.
type SlabOpenOptions struct {
	// MaxResident, when positive, is the resident-set budget in bytes of
	// everything that reads the slab: the RowPtr section, the Rows-length
	// dense vectors a solve holds, and two release windows of Cols/Vals
	// pages. The open-time sweeps and the fused kernels drop entry pages
	// behind themselves one window at a time, and a window is a quarter
	// of what the budget leaves after RowPtr and the vectors — never less
	// than one kernel stripe, so a budget too small to honor degrades to
	// releasing every stripe and is never an error. A budget that covers
	// the whole entry section releases nothing. The limit is advisory
	// (madvise); callers that need the achieved peak measure it (see
	// cmd/bench). <= 0 leaves page residency to the kernel's page cache
	// policy.
	MaxResident int64
}

// Slab is a Matrix whose arrays alias a read-only mapping of a slab file
// holding values of type F. Matrix returns the view accepted by every
// kernel and solver in this package; the slab plumbs itself into the
// fused kernel through the matrix's residency hook, so
// PowerMethodT/JacobiAffineT on a slab-backed operand stream it from disk
// with no code changes. The matrix must not be used after Close.
type Slab[F Float] struct {
	m  *Matrix[F]
	mp *durable.Mapped
}

// SlabCSR is an open float64 slab.
type SlabCSR = Slab[float64]

// SlabCSR32 is an open float32 slab, under the name benchmark/surface.go
// is frozen against.
type SlabCSR32 = Slab[float32]

// Matrix returns the slab-backed matrix view.
func (s *Slab[F]) Matrix() *Matrix[F] { return s.m }

// Close unmaps the slab. Idempotent.
func (s *Slab[F]) Close() error {
	if s.mp == nil {
		return nil
	}
	mp := s.mp
	s.mp = nil
	return mp.Close()
}

// Residency reports what the slab's residency controller has done so far.
func (s *Slab[F]) Residency() SlabResidency { return s.m.res.snapshot() }

// OpenSlab maps a slab file whose values are stored as F read-only and
// returns the slab-backed matrix. The open verifies the durable CRC
// trailer (releasing behind itself under a residency budget), parses the
// header, and runs the full structural validation sweep (monotone row
// pointers, in-range strictly-increasing columns, finite values) before
// returning, so a corrupt or hostile file — or one of the other value
// kind — is rejected with a typed error and can never induce an
// out-of-range access later.
func OpenSlab[F Float](path string, opt SlabOpenOptions) (*Slab[F], error) {
	mp, err := durable.OpenMapped(path)
	if err != nil {
		return nil, err
	}
	payload, err := mp.VerifyPayload(slabVerifyChunk, opt.MaxResident > 0)
	if err != nil {
		_ = mp.Close()
		return nil, err
	}
	m, aliased, err := slabView[F](mp, payload, opt.MaxResident)
	if err != nil {
		_ = mp.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !aliased {
		_ = mp.Close()
		return &Slab[F]{m: m}, nil
	}
	return &Slab[F]{m: m, mp: mp}, nil
}

// slabView parses and validates a verified slab payload as a matrix of F.
// On little-endian hosts with an aligned mapping the matrix aliases the
// payload (aliased is true, and a positive maxResident attaches the
// residency controller that adv serves); otherwise it is a heap copy and
// the mapping is no longer needed.
func slabView[F Float](adv *durable.Mapped, payload []byte, maxResident int64) (m *Matrix[F], aliased bool, err error) {
	h, err := parseSlabHeader(payload)
	if err != nil {
		return nil, false, err
	}
	if want := uint32(precisionOf[F]()); h.valKind != want {
		return nil, false, slabErrf(8, "value kind %d, want %d", h.valKind, want)
	}
	if m, aliased = aliasSlab[F](h); aliased {
		if maxResident > 0 {
			m.res = newSlabResidency(adv, h, maxResident)
		}
		adv.AdviseSequential()
	} else {
		m = decodeSlab[F](h)
	}
	return m, aliased, validateSlab(m)
}

// OpenSlabCSR is OpenSlab for a Float64 file.
func OpenSlabCSR(path string, opt SlabOpenOptions) (*SlabCSR, error) {
	return OpenSlab[float64](path, opt)
}

// OpenSlabCSR32 is OpenSlab for a Float32 file, under the name
// benchmark/surface.go is frozen against.
func OpenSlabCSR32(path string, opt SlabOpenOptions) (*SlabCSR32, error) {
	return OpenSlab[float32](path, opt)
}

// hostLittleEndian reports whether the host stores multi-byte integers
// little-endian — the precondition for aliasing slab sections in place.
var hostLittleEndian = func() bool {
	var x uint16 = 0x0102
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

func sliceAligned(b []byte, align uintptr) bool {
	return len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%align == 0
}

// aliasSlab reinterprets the parsed sections in place as the matrix
// arrays, without copying. ok is false when the host layout cannot alias
// (big-endian, or a backing buffer that is not suitably aligned — heap
// fallbacks of durable.OpenMapped are not guaranteed page alignment).
func aliasSlab[F Float](h slabHeader) (*Matrix[F], bool) {
	var zero F
	if !hostLittleEndian || !sliceAligned(h.rowPtr, 8) || !sliceAligned(h.cols, 4) || !sliceAligned(h.vals, unsafe.Sizeof(zero)) {
		return nil, false
	}
	// nnz==0 leaves Cols/Vals nil, matching NewCSR on an empty entry set.
	m := &Matrix[F]{
		Rows:   h.rows,
		ColsN:  h.colsN,
		RowPtr: unsafe.Slice((*int64)(unsafe.Pointer(&h.rowPtr[0])), h.rows+1),
	}
	if h.nnz > 0 {
		m.Cols = unsafe.Slice((*int32)(unsafe.Pointer(&h.cols[0])), h.nnz)
		m.Vals = unsafe.Slice((*F)(unsafe.Pointer(&h.vals[0])), h.nnz)
	}
	return m, true
}

// decodeSlab copy-decodes the sections into fresh heap arrays: the
// portable fallback, and the pure-bytes path the fuzz target drives.
func decodeSlab[F Float](h slabHeader) *Matrix[F] {
	return &Matrix[F]{
		Rows:   h.rows,
		ColsN:  h.colsN,
		RowPtr: decodeLE[int64](h.rowPtr),
		Cols:   decodeLE[int32](h.cols),
		Vals:   decodeLE[F](h.vals),
	}
}

// decodeLE decodes a section of little-endian values: the read-side
// mirror of SectionWriter.emit's byte-swapping branch.
func decodeLE[T SlabElem](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	var zero T
	size := int(unsafe.Sizeof(zero))
	out := make([]T, len(b)/size)
	le := binary.LittleEndian
	for i := range out {
		if size == 4 {
			*(*uint32)(unsafe.Pointer(&out[i])) = le.Uint32(b[4*i:])
		} else {
			*(*uint64)(unsafe.Pointer(&out[i])) = le.Uint64(b[8*i:])
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Residency

// slabAdviser is what the residency controller needs of a mapping.
// *durable.Mapped satisfies it; tests substitute a recorder.
type slabAdviser interface {
	AdviseWillNeed(off, n int64)
	Release(off, n int64)
}

// SlabResidency is what a slab's residency controller has done since the
// slab was opened. WindowBytes is the release window of the most recent
// consumer (the last kernel built over the slab, or the open-time sweep
// before any); the counters cover every consumer. All zero for a slab
// opened without a budget.
type SlabResidency struct {
	WindowBytes     int64 // Cols+Vals bytes of one release window
	ReleaseCalls    int64 // Release calls issued (one per section per merged range)
	ReleasedBytes   int64 // Cols+Vals bytes of the entry ranges released
	PrefetchedBytes int64 // Cols+Vals bytes of the entry ranges advised ahead
}

// slabResidency is the residency controller a slab-backed matrix carries
// when opened with MaxResident > 0. It turns the budget into a release
// window per consumer (newWindow) and issues every advise call; see
// releaseWindow for the rule. Releasing never changes computed bits: the
// pages are clean file-backed read-only memory, and a re-fault observes
// the same bytes.
type slabResidency struct {
	adv      slabAdviser
	colsOff  int64 // payload (== file) offset of the Cols section
	valsOff  int64
	valW     int64 // value width in bytes: 8 or 4
	rows     int
	nnz      int64
	leftover int64 // MaxResident minus the RowPtr section, which every pass rereads

	windowBytes, releaseCalls, releasedBytes, prefetchedBytes atomic.Int64

	// own is the window of the consumer that holds no dense vectors: the
	// open-time structural sweep.
	own *releaseWindow
}

func newSlabResidency(adv slabAdviser, h slabHeader, maxResident int64) *slabResidency {
	r := &slabResidency{
		adv: adv, colsOff: h.colsOff, valsOff: h.valsOff, valW: Precision(h.valKind).valWidth(),
		rows: h.rows, nnz: h.nnz, leftover: maxResident - int64(len(h.rowPtr)),
	}
	r.own = r.newWindow(0)
	return r
}

// newWindow sizes the release window of one consumer that keeps
// denseBytes of Rows-length arrays resident next to the matrix. A
// quarter of what the budget leaves after RowPtr and those arrays is one
// window: two may be resident (the one being consumed, the one
// prefetched) and the other half is slack for the runtime and for
// stripes in flight. The window is a whole number of kernel stripes —
// stripes are what consumers report — at least one, so a budget with no
// room degenerates to releasing every stripe as it completes. A budget
// that covers the whole entry section needs no releases at all: the
// window is nil and the consumer runs as on an in-heap matrix. r may be
// nil (no budget), which also yields nil.
func (r *slabResidency) newWindow(denseBytes int64) *releaseWindow {
	if r == nil {
		return nil
	}
	entryW := 4 + r.valW
	if budget := (r.leftover - denseBytes) / 4; budget < r.nnz*entryW {
		stripe := max(r.nnz/int64(stripeCountFor(int(r.nnz), r.rows)), 1)
		w := &releaseWindow{res: r, entries: max(budget/(stripe*entryW), 1) * stripe}
		// Stripes are balanced to within one row of the nominal size, so
		// half a stripe of tolerance makes the k-th stripe of a k-stripe
		// window the trigger whichever side of nominal each one lands.
		w.flushAt = w.entries - stripe/2
		r.windowBytes.Store(w.entries * entryW)
		return w
	}
	r.windowBytes.Store(r.nnz * entryW)
	return nil
}

// ownWindow is r.own, or nil for a slab without a budget (nil r).
func (r *slabResidency) ownWindow() *releaseWindow {
	if r == nil {
		return nil
	}
	return r.own
}

func (r *slabResidency) snapshot() SlabResidency {
	if r == nil {
		return SlabResidency{}
	}
	return SlabResidency{
		WindowBytes:     r.windowBytes.Load(),
		ReleaseCalls:    r.releaseCalls.Load(),
		ReleasedBytes:   r.releasedBytes.Load(),
		PrefetchedBytes: r.prefetchedBytes.Load(),
	}
}

// entryRange is the half-open range [lo, hi) of stored-entry indices.
type entryRange struct{ lo, hi int64 }

// releaseWindow accumulates the entry ranges one consumer has finished
// with and releases them a window at a time. Consumers report begin when
// they start on a range and done when they finish it, in any order and
// from any goroutine, and endPass after a whole sweep. Completed ranges
// merge with their neighbours; once a window's worth is pending — or the
// pass ends — each merged range costs one Release per section, and the
// window after the furthest entry any consumer has started on is advised
// ahead. Between reports at most one window is completed-but-unreleased,
// and one pass over the matrix costs about 4·ceil(entryBytes/window)
// advise calls, however finely the consumer stripes it.
type releaseWindow struct {
	res     *slabResidency
	entries int64 // window size in stored entries
	flushAt int64 // pending entries that trigger a release

	started atomic.Int64 // furthest entry any consumer has begun on this pass

	mu       sync.Mutex
	pending  []entryRange // done, unreleased: sorted, disjoint, not adjacent
	pendingN int64        // entries in pending
}

// begin notes that a consumer is about to read entries up to hi.
func (w *releaseWindow) begin(hi int64) {
	for {
		cur := w.started.Load()
		if hi <= cur || w.started.CompareAndSwap(cur, hi) {
			return
		}
	}
}

// done reports entries [lo, hi) as consumed. No-op on a nil window.
func (w *releaseWindow) done(lo, hi int64) {
	if w == nil || hi <= lo {
		return
	}
	w.mu.Lock()
	p := w.pending
	i := len(p)
	for i > 0 && p[i-1].lo > hi {
		i--
	}
	j := i
	for j > 0 && p[j-1].hi >= lo {
		j--
		w.pendingN -= p[j].hi - p[j].lo
		lo, hi = min(lo, p[j].lo), max(hi, p[j].hi)
	}
	w.pendingN += hi - lo
	if j == i {
		p = append(p, entryRange{})
		copy(p[i+1:], p[i:])
	} else {
		p = append(p[:j+1], p[i:]...)
	}
	p[j] = entryRange{lo, hi}
	w.pending = p
	var buf [8]entryRange
	var batch []entryRange
	if w.pendingN >= w.flushAt {
		batch = w.take(buf[:0], false)
	}
	w.mu.Unlock()
	w.release(batch)
}

// endPass releases whatever the finished sweep left pending. No-op on a
// nil window.
func (w *releaseWindow) endPass() {
	if w == nil {
		return
	}
	var buf [8]entryRange
	w.mu.Lock()
	batch := w.take(buf[:0], true)
	w.mu.Unlock()
	w.release(batch)
	w.started.Store(0)
}

// take moves pending ranges into dst. Everything below the first hole is
// finished with; the hole is a stripe still in flight, and the ranges
// above it will merge across it once it lands. So when the bottom range
// is the bulk of what is pending it goes alone — one range, two Release
// calls — and the rest waits for the next window; when it is not (a
// worker fell most of a window behind), or all is set, everything goes.
// What stays pending is thus less than half of what was. Called with mu
// held.
func (w *releaseWindow) take(dst []entryRange, all bool) []entryRange {
	if n := len(w.pending); !all && n > 1 && 2*(w.pending[0].hi-w.pending[0].lo) >= w.pendingN {
		dst = append(dst, w.pending[0])
		w.pendingN -= dst[0].hi - dst[0].lo
		w.pending = w.pending[:copy(w.pending, w.pending[1:])]
		return dst
	}
	dst = append(dst, w.pending...)
	w.pending, w.pendingN = w.pending[:0], 0
	return dst
}

// release advises the window after the furthest entry any consumer has
// started on — with several workers the stripes right after batch are
// already being read — and drops the pages of every range in batch. It
// runs outside mu, so a sibling worker reporting meanwhile never waits on
// the advise calls; the ranges are out of pending and no reader returns
// to them before the next pass.
func (w *releaseWindow) release(batch []entryRange) {
	if len(batch) == 0 {
		return
	}
	r := w.res
	entryW := 4 + r.valW
	from := max(w.started.Load(), batch[len(batch)-1].hi)
	if n := min(w.entries, r.nnz-from); n > 0 {
		r.adv.AdviseWillNeed(r.colsOff+4*from, 4*n)
		r.adv.AdviseWillNeed(r.valsOff+r.valW*from, r.valW*n)
		r.prefetchedBytes.Add(n * entryW)
	}
	var entries int64
	for _, e := range batch {
		r.adv.Release(r.colsOff+4*e.lo, 4*(e.hi-e.lo))
		r.adv.Release(r.valsOff+r.valW*e.lo, r.valW*(e.hi-e.lo))
		entries += e.hi - e.lo
	}
	r.releaseCalls.Add(2 * int64(len(batch)))
	r.releasedBytes.Add(entries * entryW)
}

// ---------------------------------------------------------------------------
// Validation

// validateSlab runs the full structural sweep over a slab-backed matrix
// in bounded-residency chunks: shape first, then rows in blocks,
// reporting each block's entries to the slab's own release window (nil
// without a budget) behind itself.
func validateSlab[F Float](m *Matrix[F]) error {
	if err := m.validateShape(); err != nil {
		return err
	}
	win := m.res.ownWindow()
	for lo := 0; lo < m.Rows; lo += slabValidateChunkRows {
		hi := min(lo+slabValidateChunkRows, m.Rows)
		if err := m.validateRowRange(lo, hi); err != nil {
			return err
		}
		win.done(m.RowPtr[lo], m.RowPtr[hi])
	}
	win.endPass()
	return nil
}
