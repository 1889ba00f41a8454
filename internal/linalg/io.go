package linalg

import (
	"bufio"
	"bytes"
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

// decodeVectorFile parses a whole on-disk file image, dispatching on the
// header version: bare stream (v1) or durable-framed (v2).
func decodeVectorFile(data []byte) (Vector, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: %d-byte file is shorter than the header", ErrVectorCorrupt, len(data))
	}
	le := binary.LittleEndian
	if magic := le.Uint32(data[0:4]); magic != vecMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrVectorCorrupt, magic)
	}
	switch ver := le.Uint32(data[4:8]); ver {
	case vecVersionLegacy:
		return readVector(bytes.NewReader(data))
	case vecVersion:
		payload, err := durable.Verify(data)
		if err != nil {
			return nil, err
		}
		return readVector(bytes.NewReader(payload))
	default:
		return nil, fmt.Errorf("%w: unsupported version %d", ErrVectorCorrupt, ver)
	}
}

func writeVector(w io.Writer, v Vector, version uint32) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	if err := binary.Write(bw, le, uint32(vecMagic)); err != nil {
		return err
	}
	if err := binary.Write(bw, le, version); err != nil {
		return err
	}
	if err := binary.Write(bw, le, uint64(len(v))); err != nil {
		return err
	}
	if err := binary.Write(bw, le, []float64(v)); err != nil {
		return err
	}
	return bw.Flush()
}

// readVector deserializes a vector stream written by writeVector,
// rejecting non-finite values so downstream solvers never see NaNs from
// disk. It accepts version 1 and 2 headers (the body layout is identical);
// the CRC trailer of framed files is checked by decodeVectorFile.
func readVector(r io.Reader) (Vector, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	var magic, ver uint32
	if err := binary.Read(br, le, &magic); err != nil {
		return nil, fmt.Errorf("linalg: reading magic: %w", err)
	}
	if magic != vecMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrVectorCorrupt, magic)
	}
	if err := binary.Read(br, le, &ver); err != nil {
		return nil, err
	}
	if ver != vecVersionLegacy && ver != vecVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrVectorCorrupt, ver)
	}
	var n uint64
	if err := binary.Read(br, le, &n); err != nil {
		return nil, err
	}
	if n > 1<<33 {
		return nil, fmt.Errorf("%w: implausible length %d", ErrVectorCorrupt, n)
	}
	// Chunked reads: a forged length must not force a huge allocation
	// before the stream runs dry (same hardening as webgraph/safeio.go).
	const chunkVals = 1 << 17
	cap0 := n
	if cap0 > chunkVals {
		cap0 = chunkVals
	}
	v := make(Vector, 0, cap0)
	for read := uint64(0); read < n; {
		c := n - read
		if c > chunkVals {
			c = chunkVals
		}
		chunk := make([]float64, c)
		if err := binary.Read(br, le, chunk); err != nil {
			return nil, fmt.Errorf("linalg: reading values: %w", err)
		}
		v = append(v, chunk...)
		read += c
	}
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("%w: non-finite value at %d", ErrVectorCorrupt, i)
		}
	}
	return v, nil
}
