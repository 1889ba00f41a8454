package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeCommitted(t *testing.T, dir, name string, payload []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	err := WriteFile(OS{}, path, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

func TestOpenMappedVerifyPayload(t *testing.T) {
	payload := make([]byte, 3<<20+17) // spans several verify chunks, odd tail
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	path := writeCommitted(t, t.TempDir(), "blob", payload)

	for _, release := range []bool{false, true} {
		m, err := OpenMapped(path)
		if err != nil {
			t.Fatalf("OpenMapped: %v", err)
		}
		if len(m.data) != len(payload)+TrailerSize {
			t.Fatalf("mapped %d bytes, want %d", len(m.data), len(payload)+TrailerSize)
		}
		got, err := m.VerifyPayload(1<<20, release)
		if err != nil {
			t.Fatalf("VerifyPayload(release=%v): %v", release, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload mismatch after verify (release=%v)", release)
		}
		// Released pages must re-fault with their original contents.
		if release && got[len(got)-1] != payload[len(payload)-1] {
			t.Fatal("released page lost its contents")
		}
		m.AdviseSequential()
		m.AdviseWillNeed(0, 4096)
		if err := m.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
}

func TestOpenMappedEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	defer m.Close()
	if _, err := m.VerifyPayload(0, false); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VerifyPayload on empty file = %v, want ErrCorrupt", err)
	}
}

func TestVerifyPayloadDetectsCorruption(t *testing.T) {
	payload := make([]byte, 1<<16)
	for i := range payload {
		payload[i] = byte(i)
	}
	dir := t.TempDir()
	path := writeCommitted(t, dir, "blob", payload)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"flipped payload byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[1234] ^= 0x40
			return c
		}},
		{"truncated", func(b []byte) []byte { return b[:len(b)-TrailerSize-7] }},
		{"trailer magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-TrailerSize] ^= 0xff
			return c
		}},
		{"short file", func(b []byte) []byte { return b[:TrailerSize-1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := filepath.Join(dir, "bad")
			if err := os.WriteFile(bad, tc.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			m, err := OpenMapped(bad)
			if err != nil {
				t.Fatalf("OpenMapped: %v", err)
			}
			defer m.Close()
			if _, err := m.VerifyPayload(4096, true); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("VerifyPayload = %v, want ErrCorrupt", err)
			}
			var ce *CorruptError
			if err2 := func() error { _, e := m.VerifyPayload(4096, false); return e }(); !errors.As(err2, &ce) || ce.Path != bad {
				t.Fatalf("want *CorruptError carrying path %q, got %v", bad, err2)
			}
		})
	}
}

// TestVerifyPayloadMatchesVerify pins the chunked verifier to the
// reference implementation: both must accept exactly the same frames.
func TestVerifyPayloadMatchesVerify(t *testing.T) {
	payload := []byte("the quick brown fox")
	framed := Frame(payload)
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, framed, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	got, err := m.VerifyPayload(3, false) // chunk smaller than payload
	if err != nil {
		t.Fatalf("VerifyPayload: %v", err)
	}
	want, err := Verify(framed)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("chunked and reference verification disagree")
	}
}

func TestReleaseOutOfRange(t *testing.T) {
	path := writeCommitted(t, t.TempDir(), "blob", make([]byte, 8192))
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// None of these may fault or panic.
	m.Release(-5, 100)
	m.Release(1<<40, 100)
	m.Release(0, 0)
	m.Release(4096, 1<<40)
	m.AdviseWillNeed(-1, 10)
	m.AdviseWillNeed(0, 1<<40)
}

// TestReleaseSpan pins the page arithmetic of Release: a page belongs to
// the range it ends in, so ranges that tile a section release every page
// exactly once and never the page a following range starts in.
func TestReleaseSpan(t *testing.T) {
	pg := pageSize
	size := 10*pg + 100 // the mapping ends mid-page, like a slab's trailer
	m := &Mapped{data: make([]byte, size), mapped: true}
	for _, tc := range []struct {
		name         string
		off, n       int64
		start, limit int64 // want data[start:limit]; limit 0 means nil
	}{
		{"aligned", 2 * pg, 3 * pg, 2 * pg, 5 * pg},
		{"unaligned start rounds down", 2*pg + 7, 3*pg - 7, 2 * pg, 5 * pg},
		{"unaligned end rounds down", 2 * pg, 3*pg + 9, 2 * pg, 5 * pg},
		{"both unaligned", 2*pg + 7, 3 * pg, 2 * pg, 5 * pg},
		{"inside one page", 2*pg + 7, 100, 0, 0},
		{"up to a page end", 2*pg + 7, pg - 7, 2 * pg, 3 * pg},
		{"at the mapping end", 8*pg + 5, 2*pg + 95, 8 * pg, size},
		{"past the mapping end", 9*pg + 5, 1 << 40, 9 * pg, size},
		{"short of the mapping end", 8 * pg, 2*pg + 99, 8 * pg, 10 * pg},
		{"empty", 4096, 0, 0, 0},
		{"negative offset", -1, 4096, 0, 0},
		{"offset past the end", size, 1, 0, 0},
	} {
		b := m.releaseSpan(tc.off, tc.n)
		if tc.limit == 0 {
			if b != nil {
				t.Errorf("%s: got a %d-byte span, want none", tc.name, len(b))
			}
			continue
		}
		if b == nil || &b[0] != &m.data[tc.start] || int64(len(b)) != tc.limit-tc.start {
			t.Errorf("%s: got %d bytes, want data[%d:%d]", tc.name, len(b), tc.start, tc.limit)
		}
	}

	// Ranges with arbitrary cuts tile the mapping: every page is released
	// exactly once.
	cuts := []int64{0, 5, pg - 1, pg, 3*pg + 1, 3*pg + 2, 7 * pg, 9*pg + 99, size}
	released := make([]int, (size+pg-1)/pg)
	for i := 0; i+1 < len(cuts); i++ {
		b := m.releaseSpan(cuts[i], cuts[i+1]-cuts[i])
		if b == nil {
			continue
		}
		first := (int64(cap(m.data)) - int64(cap(b))) / pg
		for p := first; p*pg < first*pg+int64(len(b)); p++ {
			released[p]++
		}
	}
	for p, c := range released {
		if c != 1 {
			t.Errorf("page %d released %d times by tiling ranges, want once", p, c)
		}
	}

	heap := &Mapped{data: make([]byte, size)}
	if b := heap.releaseSpan(0, size); b != nil {
		t.Errorf("heap-backed view: got a %d-byte span, want none", len(b))
	}
}
