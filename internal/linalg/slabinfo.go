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
	// HeaderCRC is the CRC32-C of the 88 header bytes — a stable
	// identity for the slab's declared shape and layout. Checkpointed
	// solves fold it into their resume fingerprint so a checkpoint taken
	// against one slab can never resume against a swapped one (the full
	// payload is already guarded by the durable trailer at open time).
	HeaderCRC uint32
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
		HeaderCRC: crc32cSum(hdr[:]),
	}, nil
}

// crc32cSum hashes data with the same CRC32-C durable's trailer uses.
func crc32cSum(data []byte) uint32 {
	h := durable.CRC32C()
	h.Write(data)
	return h.Sum32()
}
