package linalg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"sourcerank/internal/durable"
)

// Binary score-vector format: magic, version, length, IEEE-754 values.
// cmd/srank uses it to snapshot rankings for later comparison or
// warm-started recomputation.
//
// Version 1 is the bare stream of early score files. Version 2 is the
// same layout committed through internal/durable: the file is written to
// a temp path, framed with a CRC32-C trailer, fsynced, and atomically
// renamed, so a crash mid-write never tears a published vector and a
// flipped bit anywhere in the file is rejected on read. ReadVectorFile
// reads both versions.
const (
	vecMagic         = 0x53524B56 // "SRKV"
	vecVersionLegacy = 1          // bare stream, no integrity trailer
	vecVersion       = 2          // durable CRC32-C-framed file
)

// ErrVectorCorrupt reports a malformed serialized vector. Integrity
// failures caught by the CRC trailer are reported as durable.ErrCorrupt
// instead; callers screening for any corruption should test both.
var ErrVectorCorrupt = errors.New("linalg: corrupt vector encoding")

// ErrNonFinite reports a NaN or infinite value where only finite ones are
// valid: a score vector read from disk, or one a snapshot is built from.
var ErrNonFinite = errors.New("linalg: non-finite value")

// WriteVectorFile atomically commits v to path in the framed version-2
// format (write-temp, CRC32-C trailer, fsync, rename). On error the
// destination is untouched and no temp file is left behind. cmd/srank
// snapshots rankings with it and cmd/srserve re-serves them without
// recomputation.
func WriteVectorFile(path string, v Vector) error {
	return WriteVectorFileFS(nil, path, v)
}

// WriteVectorFileFS is WriteVectorFile through an explicit durable.FS
// (nil selects the real filesystem); fault-injection tests use it.
func WriteVectorFileFS(fsys durable.FS, path string, v Vector) error {
	return durable.WriteFile(fsys, path, func(w io.Writer) error {
		return writeVector(w, v, vecVersion)
	})
}

// ReadVectorFile reads a vector written by WriteVectorFile, accepting
// both the framed version-2 format and legacy version-1 files. Framed
// files are integrity-checked in full before parsing; corruption is
// reported as a typed *durable.CorruptError with offset context.
func ReadVectorFile(path string) (Vector, error) {
	return ReadVectorFileFS(nil, path)
}

// ReadVectorFileFS is ReadVectorFile through an explicit durable.FS.
func ReadVectorFileFS(fsys durable.FS, path string) (Vector, error) {
	data, err := durable.ReadRaw(fsys, path)
	if err != nil {
		return nil, err
	}
	v, err := decodeVectorFile(data)
	if err != nil {
		var ce *durable.CorruptError
		if errors.As(err, &ce) {
			ce.Path = path
			return nil, err
		}
		return nil, fmt.Errorf("linalg: reading %s: %w", path, err)
	}
	return v, nil
}

// decodeVectorFile parses a whole on-disk file image: bare (v1) or
// durable-framed (v2), whose CRC is checked before its length is read.
// The header's length must account for exactly the bytes present, so a
// forged length allocates nothing, and non-finite values are rejected so
// downstream solvers never see NaNs from disk.
func decodeVectorFile(data []byte) (Vector, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: %d-byte file is shorter than the header", ErrVectorCorrupt, len(data))
	}
	le := binary.LittleEndian
	if magic := le.Uint32(data[0:4]); magic != vecMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrVectorCorrupt, magic)
	}
	switch ver := le.Uint32(data[4:8]); ver {
	case vecVersionLegacy: // bare: the image is the payload
	case vecVersion:
		payload, err := durable.Verify(data)
		if err != nil {
			return nil, err
		}
		data = payload
	default:
		return nil, fmt.Errorf("%w: unsupported version %d", ErrVectorCorrupt, ver)
	}
	if len(data) < 16 {
		return nil, fmt.Errorf("%w: %d-byte payload is shorter than the header", ErrVectorCorrupt, len(data))
	}
	body := data[16:]
	if n := le.Uint64(data[8:16]); len(body)%8 != 0 || n != uint64(len(body)/8) {
		return nil, fmt.Errorf("%w: header declares %d values, payload holds %d bytes", ErrVectorCorrupt, n, len(body))
	}
	v := Vector(decodeLE[float64](body))
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("%w: %w at %d (%v)", ErrVectorCorrupt, ErrNonFinite, i, x)
		}
	}
	return v, nil
}

// writeVector writes the 16-byte header (magic, version, length) and the
// values as one little-endian section.
func writeVector(w io.Writer, v Vector, version uint32) error {
	var hdr [16]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:4], vecMagic)
	le.PutUint32(hdr[4:8], version)
	le.PutUint64(hdr[8:16], uint64(len(v)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	return WriteSection(w, []float64(v))
}
