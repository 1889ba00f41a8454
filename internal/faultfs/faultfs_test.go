package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestSpaceBudget: past the budget every write fails with ENOSPC, the
// crossing one short, while the disk stays otherwise usable.
func TestSpaceBudget(t *testing.T) {
	dir := t.TempDir()
	fsys := New(nil)
	fsys.SetSpaceBudget(10)
	f, err := fsys.Create(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write(make([]byte, 6)); n != 6 || err != nil {
		t.Fatalf("write under budget: %d, %v", n, err)
	}
	if n, err := f.Write(make([]byte, 6)); n != 4 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("crossing write: %d, %v; want 4, ENOSPC", n, err)
	}
	if n, err := f.Write(make([]byte, 1)); n != 0 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("write past budget: %d, %v; want 0, ENOSPC", n, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(filepath.Join(dir, "a")); err != nil || len(b) != 10 {
		t.Fatalf("file holds %d bytes (%v), want the 10 the budget allowed", len(b), err)
	}
	if entries, err := fsys.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("ReadDir on a full disk: %d entries, %v", len(entries), err)
	}
	if err := fsys.Remove(filepath.Join(dir, "a")); err != nil {
		t.Fatalf("Remove on a full disk: %v", err)
	}
	fsys.SetSpaceBudget(-1)
	g, err := fsys.Create(filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Write(make([]byte, 64)); err != nil {
		t.Fatalf("write after disarming: %v", err)
	}
}
