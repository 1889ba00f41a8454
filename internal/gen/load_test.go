package gen

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoad: a preset comes with its planted labels and no load stats; a
// file comes with its stats, no labels, and its path as its name; and
// an unknown preset is refused.
func TestLoad(t *testing.T) {
	ds, st, err := Load("", "UK2002", 0.002, 1)
	if err != nil || st != nil || ds.Name != "UK2002" || len(ds.SpamSources) == 0 {
		t.Fatalf("preset: stats %v, name %q, %d labels, err %v", st, ds.Name, len(ds.SpamSources), err)
	}
	path := filepath.Join(t.TempDir(), "corpus.pages")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Pages.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	read, st, err := Load(path, "ignored", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Pages != ds.Pages.NumPages() || read.Name != path || read.SpamSources != nil {
		t.Errorf("file: stats %v, name %q, labels %v", st, read.Name, read.SpamSources)
	}
	if read.Pages.NumLinks() != ds.Pages.NumLinks() || read.Pages.NumSources() != ds.Pages.NumSources() {
		t.Errorf("file: %d links over %d sources, wrote %d over %d",
			read.Pages.NumLinks(), read.Pages.NumSources(), ds.Pages.NumLinks(), ds.Pages.NumSources())
	}
	if _, _, err := Load("", "nosuch", 0.002, 1); err == nil {
		t.Error("unknown preset accepted")
	}
}
