package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRecorderSmoke runs the recorder once at smoke scale and holds the
// report to what only a live run can show: every slab-backed solve
// bitwise equal to its in-memory reference, one pinned score hash per
// precision across worker tiers, and the residency controller's
// release counts (counts, not times, so they cannot flake on a shared
// runner). under_cap is not checked: the Go runtime's baseline RSS
// dwarfs the few-hundred-KiB cap a 2 MiB slab implies; the committed
// full-scale report carries that claim.
func TestRecorderSmoke(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	outDir := t.TempDir()
	noScratchLeft := func(when string) {
		t.Helper()
		left, err := filepath.Glob(filepath.Join(tmp, "srank-outofcore-*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) > 0 {
			t.Errorf("%s: scratch left behind: %v", when, left)
		}
	}

	out := filepath.Join(outDir, "report.json")
	if err := run("UK2002", 0.005, 1, out, 4, ""); err != nil {
		t.Fatal(err)
	}
	noScratchLeft("after a successful run")

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep outOfCoreReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != outOfCoreSchema || !rep.Summary.Identical {
		t.Errorf("schema %q, summary.identical %v", rep.Schema, rep.Summary.Identical)
	}
	if len(rep.Solves) != 6 {
		t.Fatalf("%d solve rows, want 2 precisions x 3 worker tiers", len(rep.Solves))
	}
	wantHash := map[string]string{"float64": "a24b50aec035d8b2", "float32": "2f0f8629b19444f0"}
	for _, s := range rep.Solves {
		if !s.Identical {
			t.Errorf("%s w=%d: not identical to the in-memory solve", s.Precision, s.Workers)
		}
		if s.ScoreHash != wantHash[s.Precision] {
			t.Errorf("%s w=%d: score hash %s, want %s", s.Precision, s.Workers, s.ScoreHash, wantHash[s.Precision])
		}
		iters := int64(s.Iterations)
		if s.WindowBytes >= s.EntryBytes {
			// The window covers the entry section: nothing to release.
			if s.ReleaseCalls != 0 || s.ReleasedBytes != 0 {
				t.Errorf("%s w=%d: %d release calls over %d bytes under a covering window",
					s.Precision, s.Workers, s.ReleaseCalls, s.ReleasedBytes)
			}
			continue
		}
		if s.WindowBytes <= 0 {
			t.Fatalf("%s w=%d: window %d bytes", s.Precision, s.Workers, s.WindowBytes)
		}
		// Every entry byte released once per iteration, in at most
		// 2·(⌈entry/window⌉ + workers) Release calls per pass.
		windows := (s.EntryBytes + s.WindowBytes - 1) / s.WindowBytes
		if limit := iters * 2 * (windows + int64(s.Workers)); s.ReleaseCalls > limit {
			t.Errorf("%s w=%d: %d release calls, limit %d", s.Precision, s.Workers, s.ReleaseCalls, limit)
		}
		if want := iters * s.EntryBytes; s.ReleasedBytes != want {
			t.Errorf("%s w=%d: released %d bytes, want %d", s.Precision, s.Workers, s.ReleasedBytes, want)
		}
	}

	// A run that fails — here at the very end, writing the report — must
	// clean up as well: at -scale 2.0 its slabs are ~1.7 GB.
	if err := run("UK2002", 0.005, 1, filepath.Join(outDir, "missing", "report.json"), 4, ""); err == nil {
		t.Fatal("run with an unwritable -out succeeded")
	}
	noScratchLeft("after a failed run")
}
