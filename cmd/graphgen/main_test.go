package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func spillArgs(out, spillDir string) []string {
	return []string{"-preset", "UK2002", "-scale", "0.002", "-seed", "1",
		"-out", out, "-spill-dir", spillDir, "-spill-buffer", "4096"}
}

// TestSpillWritesSlabsAndLabels is the happy path of -spill-dir: the two
// slab files and the label file exist, no .pages file does, and the
// shard runs are gone.
func TestSpillWritesSlabsAndLabels(t *testing.T) {
	dir := t.TempDir()
	out, spill := filepath.Join(dir, "corpus"), filepath.Join(dir, "spill")
	var stdout bytes.Buffer
	if err := run(spillArgs(out, spill), &stdout); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"corpus.slabs/transition.slab", "corpus.slabs/transition_t.slab", "corpus.spam"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", name, err)
		}
	}
	if _, err := os.Stat(out + ".pages"); !os.IsNotExist(err) {
		t.Errorf("streamed generation wrote a .pages file (%v)", err)
	}
	assertEmptyDir(t, spill)
}

// TestSpillFailureRemovesRuns fails the run after generation — -out sits
// under a regular file, so <out>.slabs cannot be created — and checks the
// error comes back with the spill directory emptied: a failed run must
// not leave its shard runs (GBs at scale) behind.
func TestSpillFailureRemovesRuns(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	spill := filepath.Join(dir, "spill")
	if err := run(spillArgs(filepath.Join(blocker, "corpus"), spill), new(bytes.Buffer)); err == nil {
		t.Fatal("run succeeded with -out under a regular file")
	}
	assertEmptyDir(t, spill)
}

func assertEmptyDir(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("%s left behind in %s", e.Name(), dir)
	}
}
