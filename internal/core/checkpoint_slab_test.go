package core

import (
	"errors"
	"math"
	"testing"

	"sourcerank/internal/faultfs"
)

// TestRankCheckpointedSlabBitwise lifts the historical SlabDir rejection:
// a checkpointed solve over a residency-capped slab operand must write
// and clear checkpoints like the in-heap one and land on bitwise the
// same scores as the plain in-heap Rank.
func TestRankCheckpointedSlabBitwise(t *testing.T) {
	sg := buildSG(t, corpus(t))
	kappa := testKappa(sg.NumSources())
	ref, err := Rank(sg, kappa, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 2}
	cfg.SlabDir = t.TempDir()
	cfg.MaxResident = 4096
	dir := t.TempDir()
	res, info, err := rank(sg, kappa, cfg, &CheckpointConfig{Dir: dir, Every: 5})
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
		if math.Float64bits(res.Scores[i]) != math.Float64bits(ref.Scores[i]) {
			t.Fatalf("slab-checkpointed score %d: %v != in-heap %v", i, res.Scores[i], ref.Scores[i])
		}
	}
	if got := srckFiles(t, dir); len(got) != 0 {
		t.Fatalf("checkpoints not cleared after success: %v", got)
	}
}

// TestRankCheckpointedSlabResumesAfterCrash crashes a slab-backed
// checkpointed solve partway, restarts it against the same slab
// directory, and demands a warm resume that still reproduces the
// uninterrupted in-heap solve bit for bit.
func TestRankCheckpointedSlabResumesAfterCrash(t *testing.T) {
	sg := buildSG(t, corpus(t))
	kappa := testKappa(sg.NumSources())
	ref, err := Rank(sg, kappa, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}
	cfg.SlabDir = t.TempDir()
	cfg.MaxResident = 4096
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	ffs.SetWriteBudget(600)
	if _, _, err := rank(sg, kappa, cfg, &CheckpointConfig{Dir: dir, Every: 5, FS: ffs}); !errors.Is(err, faultfs.ErrCrash) {
		t.Fatalf("want simulated crash, got %v", err)
	}
	if len(srckFiles(t, dir)) == 0 {
		t.Fatal("crash left no committed checkpoints; lower the budget granularity")
	}
	res, info, err := rank(sg, kappa, cfg, &CheckpointConfig{Dir: dir, Every: 5})
	if err != nil {
		t.Fatal(err)
	}
	if info.ResumedFrom == 0 {
		t.Fatal("restart did not resume from a checkpoint")
	}
	for i := range ref.Scores {
		if math.Float64bits(res.Scores[i]) != math.Float64bits(ref.Scores[i]) {
			t.Fatalf("resumed slab score %d: %v != %v", i, res.Scores[i], ref.Scores[i])
		}
	}
}

// TestRankCheckpointedSlabBackingMismatchDiscarded pins the fingerprint
// extension: checkpoints recorded by an in-heap solve answer the same
// fixed point but a different resume identity, so a slab-backed restart
// must discard them and cold-start — and vice versa a slab checkpoint
// never leaks into an in-heap resume.
func TestRankCheckpointedSlabBackingMismatchDiscarded(t *testing.T) {
	sg := buildSG(t, corpus(t))
	kappa := testKappa(sg.NumSources())
	dir := t.TempDir()
	crashOnce(t, dir, kappa) // in-heap checkpoints

	cfg := Config{}
	cfg.SlabDir = t.TempDir()
	res, info, err := rank(sg, kappa, cfg, &CheckpointConfig{Dir: dir, Every: 5})
	if err != nil {
		t.Fatal(err)
	}
	if info.ResumedFrom != 0 {
		t.Fatalf("slab solve resumed from an in-heap checkpoint at iteration %d", info.ResumedFrom)
	}
	if info.Discarded == 0 {
		t.Fatal("in-heap checkpoints not reported as discarded")
	}
	ref, err := Rank(sg, kappa, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Scores {
		if math.Float64bits(res.Scores[i]) != math.Float64bits(ref.Scores[i]) {
			t.Fatalf("score %d: %v != %v", i, res.Scores[i], ref.Scores[i])
		}
	}
}

// TestFingerprintWithSlab pins the mixing primitive itself: folding a
// header CRC must change the hash, distinct CRCs must not collide on the
// same base, and the derivation must be deterministic.
func TestFingerprintWithSlab(t *testing.T) {
	fp := fingerprint{nodes: 3, hash: 0x1234}
	a, b := fp.withSlab(1), fp.withSlab(2)
	if a.nodes != fp.nodes || b.nodes != fp.nodes {
		t.Fatal("withSlab changed the node count")
	}
	if a.hash == fp.hash || b.hash == fp.hash {
		t.Fatal("withSlab left the hash unchanged")
	}
	if a.hash == b.hash {
		t.Fatal("distinct slab CRCs collided")
	}
	if again := fp.withSlab(1); again != a {
		t.Fatal("withSlab is not deterministic")
	}
}
