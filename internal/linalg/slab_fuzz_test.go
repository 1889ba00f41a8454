package linalg

import (
	"errors"
	"path/filepath"
	"testing"
)

// slabPayload builds a valid committed slab for m and returns its payload
// with the durable trailer stripped — the byte domain the fuzzer mutates.
func slabPayload(f *testing.F, m *CSR, prec Precision) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.slab")
	if err := WriteSlabCSR(nil, path, m, prec); err != nil {
		f.Fatal(err)
	}
	return slabFilePayload(f, path)
}

// consumeSlab takes an accepted header down both consumption paths at
// value type F.
func consumeSlab[F Float](h slabHeader) {
	_ = validateSlab(decodeSlab[F](h))
	if am, ok := aliasSlab[F](h); ok {
		_ = validateSlab(am)
	}
}

// FuzzSlabDecode drives arbitrary bytes through the slab header parser
// and, at the value type the header declares, the decoder, the in-place
// view and structural validation. The contract: any input
// either decodes to a structurally valid matrix or fails with a typed
// error — never a panic, never an out-of-range slice into the payload.
//
// The CRC trailer is deliberately absent here: in production it screens
// out random corruption before parseSlabHeader runs, so fuzzing framed
// files would only exercise the checksum. Parsing the raw payload is the
// adversarial surface (a trailer is cheap to forge).
func FuzzSlabDecode(f *testing.F) {
	mustSeed := func(rows, cols int, entries []Entry) *CSR {
		m, err := NewCSR(rows, cols, entries)
		if err != nil {
			f.Fatal(err)
		}
		return m
	}
	small := mustSeed(3, 3, []Entry{{0, 1, 0.5}, {0, 2, 0.5}, {2, 0, 1}})
	empty := mustSeed(2, 2, nil)
	for _, prec := range []Precision{Float64, Float32} {
		for _, m := range []*CSR{small, empty} {
			p := slabPayload(f, m, prec)
			f.Add(p)
			f.Add(p[:len(p)-1])         // truncated tail
			f.Add(p[:slabHeaderSize])   // header only
			f.Add(p[:slabHeaderSize-3]) // short header
			mut := append([]byte(nil), p...)
			mut[40] ^= 0x01 // rowptr offset
			f.Add(mut)
			mut2 := append([]byte(nil), p...)
			mut2[16] = 0xEE // rows
			f.Add(mut2)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x4C, 0x53, 0x52, 0x53}) // magic alone

	f.Fuzz(func(t *testing.T, payload []byte) {
		h, err := parseSlabHeader(payload)
		if err != nil {
			if !errors.Is(err, ErrSlabFormat) {
				t.Fatalf("parse error is not ErrSlabFormat: %v", err)
			}
			var fe *SlabFormatError
			if !errors.As(err, &fe) {
				t.Fatalf("parse error is not *SlabFormatError: %v", err)
			}
			return
		}
		// Header accepted: both consumption paths must stay in bounds.
		// Structural defects (non-monotone rowptr, columns out of range,
		// non-finite values) are caught by validation, not by faulting.
		if h.valKind == uint32(Float64) {
			consumeSlab[float64](h)
		} else {
			consumeSlab[float32](h)
		}
	})
}
