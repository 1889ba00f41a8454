package linalg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

func TestVectorRoundTrip(t *testing.T) {
	v := Vector{0.25, -1e-9, 3.5e100, 0}
	var buf bytes.Buffer
	if err := writeVector(&buf, v, vecVersionLegacy); err != nil {
		t.Fatal(err)
	}
	got, err := decodeVectorFile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(v) {
		t.Fatalf("length %d, want %d", len(got), len(v))
	}
	for i := range v {
		if got[i] != v[i] {
			t.Errorf("v[%d] = %v, want %v", i, got[i], v[i])
		}
	}
}

func TestVectorRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := writeVector(&buf, Vector{}, vecVersionLegacy); err != nil {
		t.Fatal(err)
	}
	got, err := decodeVectorFile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("length %d", len(got))
	}
}

func TestReadVectorRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := writeVector(&buf, Vector{1, 2, 3}, vecVersionLegacy); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte{}, raw...)
		bad[0] ^= 0xFF
		if _, err := decodeVectorFile(bad); !errors.Is(err, ErrVectorCorrupt) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{2, 6, 14, len(raw) - 1} {
			if _, err := decodeVectorFile(raw[:cut]); err == nil {
				t.Errorf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("length mismatch", func(t *testing.T) {
		for _, n := range []uint64{2, 4, 1 << 62} {
			bad := append([]byte{}, raw...)
			binary.LittleEndian.PutUint64(bad[8:], n)
			if _, err := decodeVectorFile(bad); !errors.Is(err, ErrVectorCorrupt) {
				t.Errorf("declared length %d over 3 values accepted: %v", n, err)
			}
		}
		if _, err := decodeVectorFile(append(raw[:len(raw):len(raw)], 0)); !errors.Is(err, ErrVectorCorrupt) {
			t.Errorf("trailing byte accepted: %v", err)
		}
	})
	t.Run("nan value", func(t *testing.T) {
		bad := append([]byte{}, raw...)
		binary.LittleEndian.PutUint64(bad[16:], math.Float64bits(math.NaN()))
		if _, err := decodeVectorFile(bad); !errors.Is(err, ErrVectorCorrupt) {
			t.Errorf("NaN accepted: %v", err)
		}
	})
}
