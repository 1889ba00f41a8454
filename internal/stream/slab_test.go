package stream

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
	"sourcerank/internal/rank"
	"sourcerank/internal/server"
)

// TestSlabRefreshBitwiseEqualsInHeap is the slab-backed refresh's
// equivalence suite: twin pipelines — one default, one rewriting slab
// generations under a residency budget and a tiny patch buffer (forcing
// multi-chunk rewrites) — consume identical delta batches, and after
// every refresh each published score set must match bit for bit. The
// committed generation file itself must equal a cold
// WriteSlabCSR(TransitionT(structure)) byte for byte. (That the builder
// never materializes the in-heap Mᵀ beside a provider is pinned in
// internal/server, TestBuilderTransitionProvider.)
func TestSlabRefreshBitwiseEqualsInHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := randomCorpus(rng, 18, 70, 240)
	spam := []int32{0, 3, 7}
	slabDir := t.TempDir()

	ref, err := NewPipeline(base.Clone(), Options{Spam: spam, TopK: 4, Name: "twin"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(base.Clone(), Options{
		Spam: spam, TopK: 4, Name: "twin",
		SlabDir: slabDir, MaxResident: 4096, SlabPatchEntries: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var patched, copied int
	for step := 0; step < 10; step++ {
		deltas := randomDeltas(rng, ref.Ingestor().PageGraph())
		if _, err := ref.Apply(deltas); err != nil {
			t.Fatalf("step %d: ref apply: %v", step, err)
		}
		if _, err := p.Apply(deltas); err != nil {
			t.Fatalf("step %d: slab apply: %v", step, err)
		}
		wantSnap, _, err := ref.Refresh()
		if err != nil {
			t.Fatalf("step %d: ref refresh: %v", step, err)
		}
		gotSnap, st, err := p.Refresh()
		if err != nil {
			t.Fatalf("step %d: slab refresh: %v", step, err)
		}
		patched += st.SlabRowsPatched
		copied += st.SlabRowsCopied
		for _, algo := range wantSnap.Algos() {
			a, b := gotSnap.Set(algo).ScoresView(), wantSnap.Set(algo).ScoresView()
			if len(a) != len(b) {
				t.Fatalf("step %d: %s: %d scores vs %d", step, algo, len(a), len(b))
			}
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("step %d: %s score %d diverges bitwise from in-heap refresh", step, algo, i)
				}
			}
		}

		// The committed generation must be byte-identical to a cold slab
		// write of the cold-rebuilt operand.
		want := filepath.Join(t.TempDir(), "ref.slab")
		if err := linalg.WriteSlabCSR(nil, want, rank.TransitionT(p.ing.Structure()), linalg.SlabFloat64); err != nil {
			t.Fatal(err)
		}
		wantBytes, err := os.ReadFile(want)
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := os.ReadFile(p.slab.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("step %d: generation %s differs from cold slab build", step, filepath.Base(p.slab.path))
		}

		// Superseded generations are reclaimed: exactly one file remains.
		entries, err := os.ReadDir(slabDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("step %d: %d generation files on disk, want 1", step, len(entries))
		}
	}
	if patched == 0 || copied == 0 {
		t.Fatalf("refresh accounting degenerate: patched=%d copied=%d (want both nonzero)", patched, copied)
	}
}

// TestSlabRefreshSkipsRewriteWhenCurrent pins the generation cache: a
// touch-only refresh keeps the mapped generation and reports zero
// patch/copy work.
func TestSlabRefreshSkipsRewriteWhenCurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pg := randomCorpus(rng, 8, 24, 60)
	p, err := NewPipeline(pg, Options{
		Spam: []int32{1}, TopK: 2, SlabDir: t.TempDir(), MaxResident: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	_, st1, err := p.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if st1.SlabRowsPatched == 0 {
		t.Fatal("first refresh patched no rows (cold generation build expected)")
	}
	gen := p.slab.path
	if _, err := p.Apply([]Delta{TouchPage(0), TouchPage(3)}); err != nil {
		t.Fatal(err)
	}
	_, st2, err := p.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if st2.SlabRowsPatched != 0 || st2.SlabRowsCopied != 0 {
		t.Fatalf("touch-only refresh rewrote the generation: %+v", st2)
	}
	if p.slab.path != gen {
		t.Fatalf("touch-only refresh swapped generations: %s -> %s", gen, p.slab.path)
	}
}

// TestSlabRefreshPrunesStaleGenerations: generation files surviving a
// crashed predecessor are reclaimed at construction.
func TestSlabRefreshPrunesStaleGenerations(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dir := t.TempDir()
	stale := filepath.Join(dir, fmt.Sprintf("%s99%s", slabGenPrefix, slabGenSuffix))
	if err := os.WriteFile(stale, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(dir, "unrelated.dat")
	if err := os.WriteFile(keep, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(randomCorpus(rng, 6, 18, 40), Options{
		Spam: []int32{0}, TopK: 2, SlabDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale generation survived pipeline construction")
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("unrelated file was pruned: %v", err)
	}
	if _, _, err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
}

// TestSlabRefreshPublishes keeps the store path honest in slab mode:
// published snapshots carry every default algorithm and advance versions.
func TestSlabRefreshPublishes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	store := server.NewStore(nil)
	p, err := NewPipeline(randomCorpus(rng, 10, 30, 90), Options{
		Spam: []int32{2}, TopK: 3, Store: store,
		SlabDir: t.TempDir(), MaxResident: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 3; i++ {
		if _, err := p.Apply(randomDeltas(rng, p.Ingestor().PageGraph())); err != nil {
			t.Fatal(err)
		}
		_, st, err := p.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		if st.Version != uint64(i+1) {
			t.Fatalf("refresh %d published version %d", i, st.Version)
		}
	}
	snap := store.Current()
	if snap == nil || len(snap.Algos()) != len(server.DefaultAlgos) {
		t.Fatalf("store snapshot missing algorithms: %v", snap.Algos())
	}
}

// TestSlabRefreshAllocatesPatchBufferOnly rewrites a generation with a
// thousand dirty rows scattered among clean spans and bounds what the
// rewrite allocates by its O(rows) index arrays plus the patch buffers —
// two thousand row and span writes per section must not each cost a
// staging buffer (they used to: 32 KiB apiece, 130 MB here). The file
// must still equal the cold slab write byte for byte.
func TestSlabRefreshAllocatesPatchBufferOnly(t *testing.T) {
	const nodes, dirtyRows, patchEntries = 5000, 1000, 4096
	b := graph.NewBuilder(nodes)
	rng := rand.New(rand.NewSource(31))
	for k := 0; k < 8*nodes; k++ {
		b.AddEdge(int32(rng.Intn(nodes)), int32(rng.Intn(nodes)))
	}
	g := b.Build()
	sr := newSlabRefresher(Options{SlabDir: t.TempDir(), SlabPatchEntries: patchEntries})
	defer sr.close()
	if _, _, _, err := sr.ensure(g, 1); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < dirtyRows; v++ {
		sr.invalidate(nil, []int32{int32(v * (nodes / dirtyRows))})
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	path := filepath.Join(sr.dir, "next.slab")
	patched, copied, err := sr.writeGeneration(g, path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if patched != dirtyRows || copied != nodes-dirtyRows {
		t.Fatalf("patched %d copied %d, want %d and %d", patched, copied, dirtyRows, nodes-dirtyRows)
	}
	// Index state: in-degrees, row pointers, the dirty list. Patch state:
	// the column and value buffers and the row index map, each bounded by
	// patchEntries. Four times their sum leaves room for the section
	// writers' batch buffers and the commit's bufio.
	model := uint64(8*nodes+8*(nodes+1)+4*nodes) + uint64(patchEntries*(4+8+16))
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("rewrite allocated %d bytes against a model of %d", got, model)
	if got > 4*model {
		t.Fatalf("rewrite allocated %d bytes, want at most %d (4 x index + patch state)", got, 4*model)
	}

	want := filepath.Join(t.TempDir(), "ref.slab")
	if err := linalg.WriteSlabCSR(nil, want, rank.TransitionT(g), linalg.SlabFloat64); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatal("rewritten generation differs from the cold slab write")
	}
}
