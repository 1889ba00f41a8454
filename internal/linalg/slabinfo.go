package linalg

import (
	"io"

	"sourcerank/internal/durable"
)

// SlabInfo summarizes a slab file's header without mapping the file.
type SlabInfo struct {
	Precision Precision
	Rows      int
	Cols      int
	NNZ       int64
}

// ReadSlabInfo reads and validates the fixed-size header of the slab at
// path through fsys (nil selects the real filesystem). It costs one
// 88-byte read: no section is touched, no mapping is created.
func ReadSlabInfo(fsys durable.FS, path string) (SlabInfo, error) {
	if fsys == nil {
		fsys = durable.OS{}
	}
	f, err := fsys.Open(path)
	if err != nil {
		return SlabInfo{}, err
	}
	defer f.Close()
	var hdr [slabHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return SlabInfo{}, slabErrf(0, "short header: %v", err)
	}
	h, err := parseSlabFixed(hdr[:])
	if err != nil {
		return SlabInfo{}, err
	}
	return SlabInfo{
		Precision: Precision(h.valKind),
		Rows:      h.rows,
		Cols:      h.colsN,
		NNZ:       h.nnz,
	}, nil
}
