package linalg

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sourcerank/internal/durable"
	"sourcerank/internal/faultfs"
)

func testVector(n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = 1 / float64(i+2)
	}
	return v
}

func TestVectorFileRoundTripFramed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scores.vec")
	want := testVector(1000)
	if err := WriteVectorFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVectorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestReadVectorFileV1BackCompat reads the committed legacy version-1
// golden file through the current reader.
func TestReadVectorFileV1BackCompat(t *testing.T) {
	got, err := ReadVectorFile(filepath.Join("testdata", "scores_v1.vec"))
	if err != nil {
		t.Fatal(err)
	}
	want := Vector{0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.015625}
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestVectorFileFlippedByteAnywhereRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scores.vec")
	if err := WriteVectorFile(path, testVector(16)); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0xa5
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadVectorFile(path)
		if err == nil {
			t.Fatalf("flip at offset %d accepted", i)
		}
		if !errors.Is(err, durable.ErrCorrupt) && !errors.Is(err, ErrVectorCorrupt) {
			t.Fatalf("flip at offset %d: untyped error %v", i, err)
		}
	}
}

func TestVectorFileTruncationAtEveryOffsetRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scores.vec")
	if err := WriteVectorFile(path, testVector(8)); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(good); n++ {
		if err := os.WriteFile(path, good[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadVectorFile(path)
		if err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
		if !errors.Is(err, durable.ErrCorrupt) && !errors.Is(err, ErrVectorCorrupt) {
			t.Fatalf("truncation to %d: untyped error %v", n, err)
		}
	}
}

// TestWriteVectorFileCrashLeavesOldVersion is the regression for the old
// create-and-truncate writer, which leaked a partially written file on
// error: a failed commit must leave the previous file byte-identical and
// no temp file behind.
func TestWriteVectorFileCrashLeavesOldVersion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scores.vec")
	want := testVector(64)
	if err := WriteVectorFile(path, want); err != nil {
		t.Fatal(err)
	}
	ffs := faultfs.New(nil)
	ffs.SetWriteBudget(32)
	err := WriteVectorFileFS(ffs, path, testVector(100000))
	if !errors.Is(err, faultfs.ErrCrash) {
		t.Fatalf("want ErrCrash, got %v", err)
	}
	got, err := ReadVectorFile(path)
	if err != nil {
		t.Fatalf("previous version unreadable after crashed write: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("previous version clobbered: %d values, want %d", len(got), len(want))
	}
	// A crash may leave a .tmp file behind (the "process" died before
	// cleanup); recovery ignores it. A clean failure must not: a second
	// failed write on a healed disk removes its temp file.
	ffs.Heal()
	ffs.FailNextSyncs(1)
	if err := WriteVectorFileFS(ffs, path, want); err == nil {
		t.Fatal("want sync error")
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file leaked after clean failure: %v", err)
	}
}

func TestWriteVectorFileSyncErrorPropagates(t *testing.T) {
	ffs := faultfs.New(nil)
	ffs.FailNextSyncs(1)
	err := WriteVectorFileFS(ffs, filepath.Join(t.TempDir(), "scores.vec"), testVector(4))
	if !errors.Is(err, faultfs.ErrSync) {
		t.Fatalf("want ErrSync surfaced from the fsync path, got %v", err)
	}
}

func TestDecodeVectorFileRejectsNonFinite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scores.vec")
	if err := WriteVectorFile(path, Vector{1, math.NaN(), 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadVectorFile(path); !errors.Is(err, ErrVectorCorrupt) || !errors.Is(err, ErrNonFinite) {
		t.Fatalf("NaN accepted from framed file: %v", err)
	}
}

// TestVectorFileVersionDowngradeRejected: a framed file whose version
// byte is rewritten from 2 to 1 must not be read as a bare v1 stream
// with its CRC trailer ignored. Here the flipped value bit would
// otherwise read back as 0.5000000000000001.
func TestVectorFileVersionDowngradeRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scores.vec")
	if err := WriteVectorFile(path, Vector{0.5, 0.25}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[4] = vecVersionLegacy
	data[16] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if v, err := ReadVectorFile(path); !errors.Is(err, ErrVectorCorrupt) {
		t.Fatalf("downgraded file with a flipped bit read as %v, err %v", v, err)
	}
}
