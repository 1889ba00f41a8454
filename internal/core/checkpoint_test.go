package core

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sourcerank/internal/durable"
	"sourcerank/internal/faultfs"
	"sourcerank/internal/linalg"
	"sourcerank/internal/throttle"
)

func testKappa(n int) []float64 {
	kappa := make([]float64, n)
	kappa[n-1] = 1
	kappa[n-2] = 1
	return kappa
}

func srckFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".srck") {
			names = append(names, e.Name())
		}
	}
	return names
}

// crashOnce runs the checkpointed solve against a write budget sized to die
// partway through the solve, leaving committed checkpoints behind.
func crashOnce(t *testing.T, dir string, kappa []float64) {
	t.Helper()
	sg := buildSG(t, corpus(t))
	ffs := faultfs.New(nil)
	ffs.SetWriteBudget(600)
	_, _, err := rank(sg, kappa, Config{}, &CheckpointConfig{Dir: dir, Every: 5, FS: ffs})
	if !errors.Is(err, faultfs.ErrCrash) {
		t.Fatalf("want simulated crash, got %v", err)
	}
	if len(srckFiles(t, dir)) == 0 {
		t.Fatal("crash left no committed checkpoints; lower the budget granularity")
	}
}

func TestRankCheckpointedMatchesRankBitwise(t *testing.T) {
	sg := buildSG(t, corpus(t))
	kappa := testKappa(sg.NumSources())
	ref, err := Rank(sg, kappa, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, info, err := rank(sg, kappa, Config{}, &CheckpointConfig{Dir: dir, Every: 5})
	if err != nil {
		t.Fatal(err)
	}
	if info.ResumedFrom != 0 {
		t.Fatalf("cold start resumed from %d", info.ResumedFrom)
	}
	if info.Written == 0 {
		t.Fatal("no checkpoints written")
	}
	for i := range ref.Scores {
		if res.Scores[i] != ref.Scores[i] {
			t.Fatalf("score %d: %v != %v", i, res.Scores[i], ref.Scores[i])
		}
	}
	if got := srckFiles(t, dir); len(got) != 0 {
		t.Fatalf("checkpoints not cleared after success: %v", got)
	}
}

func TestRankCheckpointedResumesAfterCrash(t *testing.T) {
	sg := buildSG(t, corpus(t))
	kappa := testKappa(sg.NumSources())
	ref, err := Rank(sg, kappa, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	crashOnce(t, dir, kappa)
	res, info, err := rank(sg, kappa, Config{}, &CheckpointConfig{Dir: dir, Every: 5})
	if err != nil {
		t.Fatal(err)
	}
	if info.ResumedFrom == 0 {
		t.Fatal("restart did not resume from a checkpoint")
	}
	for i := range ref.Scores {
		if res.Scores[i] != ref.Scores[i] {
			t.Fatalf("resumed score %d: %v != %v", i, res.Scores[i], ref.Scores[i])
		}
	}
}

func TestRankCheckpointedDiscardsFingerprintMismatch(t *testing.T) {
	sg := buildSG(t, corpus(t))
	kappaA := testKappa(sg.NumSources())
	dir := t.TempDir()
	crashOnce(t, dir, kappaA)

	// Same graph, different throttle vector: the old checkpoints answer
	// a different fixed-point equation and must be discarded.
	kappaB := make([]float64, sg.NumSources())
	res, info, err := rank(sg, kappaB, Config{}, &CheckpointConfig{Dir: dir, Every: 5})
	if err != nil {
		t.Fatal(err)
	}
	if info.ResumedFrom != 0 {
		t.Fatalf("resumed from a mismatched checkpoint at iteration %d", info.ResumedFrom)
	}
	if info.Discarded == 0 {
		t.Fatal("mismatched checkpoints not reported as discarded")
	}
	ref, err := Rank(sg, kappaB, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Scores {
		if res.Scores[i] != ref.Scores[i] {
			t.Fatalf("score %d: %v != %v", i, res.Scores[i], ref.Scores[i])
		}
	}
}

func TestRankCheckpointedSkipsCorruptCheckpoint(t *testing.T) {
	sg := buildSG(t, corpus(t))
	kappa := testKappa(sg.NumSources())
	dir := t.TempDir()
	crashOnce(t, dir, kappa)
	names := srckFiles(t, dir)
	// Flip one byte in the newest checkpoint: resume must reject it and
	// fall back (to an older checkpoint or a cold start) without error.
	newest := names[len(names)-1]
	path := filepath.Join(dir, newest)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, info, err := rank(sg, kappa, Config{}, &CheckpointConfig{Dir: dir, Every: 5})
	if err != nil {
		t.Fatal(err)
	}
	if info.Discarded == 0 {
		t.Fatal("corrupt checkpoint not reported as discarded")
	}
	ref, err := Rank(sg, kappa, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Scores {
		if res.Scores[i] != ref.Scores[i] {
			t.Fatalf("score %d: %v != %v", i, res.Scores[i], ref.Scores[i])
		}
	}
}

func TestRankCheckpointedPrunesOldCheckpoints(t *testing.T) {
	sg := buildSG(t, corpus(t))
	kappa := testKappa(sg.NumSources())
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	ffs.SetWriteBudget(2000) // enough for many checkpoints before dying
	_, _, err := rank(sg, kappa, Config{}, &CheckpointConfig{Dir: dir, Every: 2, FS: ffs})
	if !errors.Is(err, faultfs.ErrCrash) {
		t.Fatalf("want simulated crash, got %v", err)
	}
	if got := srckFiles(t, dir); len(got) > 3 {
		// Keep newest 2 plus at most the one written after the last prune.
		t.Fatalf("pruning kept %d checkpoints: %v", len(got), got)
	}
}

// TestCheckpointFingerprintGolden pins the checkpoint fingerprint bytes
// on fixed inputs: a change to fingerprint derivation would silently
// break resume compatibility with pre-existing checkpoint directories.
// An intentional format change must update the constants (and bump the
// checkpoint magic).
func TestCheckpointFingerprintGolden(t *testing.T) {
	m, err := linalg.NewCSR(3, 3, []linalg.Entry{
		{Row: 0, Col: 1, Val: 0.5}, {Row: 0, Col: 2, Val: 0.5},
		{Row: 1, Col: 0, Val: 1}, {Row: 2, Col: 2, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cold := fingerprintOf(m, 0.85, nil)
	warm := fingerprintOf(m, 0.85, linalg.Vector{0.25, 0.25, 0.5})
	if want := uint64(0x4a2ae2d7003b4e8a); cold.hash != want || cold.nodes != 3 {
		t.Errorf("cold fingerprint = {nodes:%d hash:%#x}, golden {nodes:3 hash:%#x}", cold.nodes, cold.hash, want)
	}
	if want := uint64(0xf7284b5517582325); warm.hash != want || warm.nodes != 3 {
		t.Errorf("warm fingerprint = {nodes:%d hash:%#x}, golden {nodes:3 hash:%#x}", warm.nodes, warm.hash, want)
	}
}

// TestCheckpointVersionDiscardsOlderIterates pins the payload version at
// 2 and checks that a version-1 file — same fingerprint, but a power
// iterate — is discarded once rather than resumed into a Jacobi solve.
func TestCheckpointVersionDiscardsOlderIterates(t *testing.T) {
	sg := buildSG(t, corpus(t))
	kappa := testKappa(sg.NumSources())
	tpp, err := throttle.Apply(sg.T, kappa)
	if err != nil {
		t.Fatal(err)
	}
	fp := fingerprintOf(tpp, 0.85, nil)
	dir := t.TempDir()
	old := linalg.NewUniformVector(sg.NumSources())
	err = durable.WriteFile(durable.OS{}, filepath.Join(dir, "ckpt-000000000010.srck"), func(w io.Writer) error {
		for _, v := range []any{uint32(0x5352434B), uint32(1), uint64(sg.NumSources()), fp.hash, uint64(10)} {
			if err := binary.Write(w, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return linalg.WriteVector(w, old)
	})
	if err != nil {
		t.Fatal(err)
	}
	ffs := faultfs.New(nil)
	ffs.SetWriteBudget(600)
	if _, info, err := rank(sg, kappa, Config{}, &CheckpointConfig{Dir: dir, Every: 5, FS: ffs}); !errors.Is(err, faultfs.ErrCrash) {
		t.Fatalf("want simulated crash, got %v", err)
	} else if info.ResumedFrom != 0 || info.Discarded != 1 {
		t.Fatalf("version-1 checkpoint: resumed from %d, discarded %d; want 0 and 1", info.ResumedFrom, info.Discarded)
	}
	names := srckFiles(t, dir)
	if len(names) == 0 {
		t.Fatal("crash left no committed checkpoints")
	}
	payload, err := durable.ReadFile(durable.OS{}, filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(payload[4:8]); v != 2 {
		t.Fatalf("checkpoint written at version %d, want 2", v)
	}
}
