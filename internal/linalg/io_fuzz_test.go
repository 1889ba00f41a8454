package linalg

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// frameForFuzz appends a valid durable trailer so the fuzzer starts from
// well-formed framed files and mutates from there.
func frameForFuzz(payload []byte) []byte {
	out := append([]byte(nil), payload...)
	var trailer [16]byte
	le := binary.LittleEndian
	le.PutUint32(trailer[0:4], 0x53524446) // durable trailer magic
	le.PutUint64(trailer[4:12], uint64(len(payload)))
	le.PutUint32(trailer[12:16], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(out, trailer[:]...)
}

// FuzzDecodeVectorFile feeds arbitrary bytes to the CRC-framed vector
// file reader: it must never panic or over-allocate, and any vector it
// does accept must round-trip.
func FuzzDecodeVectorFile(f *testing.F) {
	var buf bytes.Buffer
	if err := writeVector(&buf, Vector{0.5, 0.25, 0.125}, vecVersion); err != nil {
		f.Fatal(err)
	}
	f.Add(frameForFuzz(buf.Bytes()))
	buf.Reset()
	if err := writeVector(&buf, Vector{1}, vecVersionLegacy); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes()) // legacy v1, no trailer
	f.Add([]byte{})
	f.Add([]byte{0x56, 0x4b, 0x52, 0x53})
	// A framed file downgraded to v1 with a flipped value bit: the
	// trailer must not be ignored.
	var framed bytes.Buffer // not buf: the v1 seed above aliases its bytes
	if err := writeVector(&framed, Vector{0.5, 0.25}, vecVersion); err != nil {
		f.Fatal(err)
	}
	downgraded := frameForFuzz(framed.Bytes())
	downgraded[4], downgraded[16] = vecVersionLegacy, downgraded[16]^1
	f.Add(downgraded)

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decodeVectorFile(data)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeVector(&out, v, vecVersionLegacy); err != nil {
			t.Fatalf("re-encoding accepted vector: %v", err)
		}
		v2, err := decodeVectorFile(out.Bytes())
		if err != nil {
			t.Fatalf("round-trip of accepted vector failed: %v", err)
		}
		if len(v2) != len(v) {
			t.Fatalf("round-trip length %d != %d", len(v2), len(v))
		}
		for i := range v {
			if v[i] != v2[i] {
				t.Fatalf("round-trip value %d: %v != %v", i, v[i], v2[i])
			}
		}
	})
}
