package gen

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"sourcerank/internal/durable"
	"sourcerank/internal/faultfs"
)

// writeRun commits a shard-run file holding keys, mirroring spillSink's
// encoder, so merge tests can stage hand-crafted run layouts.
func writeRun(t *testing.T, dir string, idx int, keys []uint64) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("run-%06d.srer", idx))
	err := durable.WriteFile(nil, path, func(w io.Writer) error {
		var hdr [runHeaderSize]byte
		le := binary.LittleEndian
		le.PutUint32(hdr[0:4], runMagic)
		le.PutUint32(hdr[4:8], runVersion)
		le.PutUint64(hdr[8:16], uint64(len(keys)))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		buf := make([]byte, 8*len(keys))
		for i, k := range keys {
			le.PutUint64(buf[i*8:], k)
		}
		_, err := w.Write(buf)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// testCorpus assembles a Corpus over hand-written runs.
func testCorpus(t *testing.T, pages int, workers int, runKeys ...[]uint64) *Corpus {
	t.Helper()
	dir := t.TempDir()
	c := &Corpus{NumPages: pages, fsys: durable.OS{}, workers: workers}
	for i, keys := range runKeys {
		c.runs = append(c.runs, writeRun(t, dir, i, keys))
	}
	return c
}

// collectAdjacency drains EachAdjacency into a dense [][]int32 snapshot.
func collectAdjacency(t *testing.T, c *Corpus) [][]int32 {
	t.Helper()
	adj := make([][]int32, 0, c.NumPages)
	err := c.EachAdjacency(func(u int32, succ []int32) error {
		if int(u) != len(adj) {
			t.Fatalf("EachAdjacency emitted node %d, want %d", u, len(adj))
		}
		adj = append(adj, append([]int32(nil), succ...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return adj
}

func key(u, v int32) uint64 { return uint64(u)<<32 | uint64(uint32(v)) }

func TestMergeNoRuns(t *testing.T) {
	c := testCorpus(t, 3, 1)
	adj := collectAdjacency(t, c)
	want := [][]int32{nil, nil, nil}
	if !reflect.DeepEqual(adj, want) {
		t.Fatalf("merged adjacency = %v, want all-empty rows", adj)
	}
}

func TestMergeEmptyShard(t *testing.T) {
	// A zero-key run must be transparent to the merge.
	c := testCorpus(t, 4, 1, nil, []uint64{key(1, 0), key(1, 2)}, nil)
	adj := collectAdjacency(t, c)
	want := [][]int32{nil, {0, 2}, nil, nil}
	if !reflect.DeepEqual(adj, want) {
		t.Fatalf("merged adjacency = %v, want %v", adj, want)
	}
}

func TestMergeSingleEdge(t *testing.T) {
	c := testCorpus(t, 3, 1, []uint64{key(2, 0)})
	adj := collectAdjacency(t, c)
	want := [][]int32{nil, nil, {0}}
	if !reflect.DeepEqual(adj, want) {
		t.Fatalf("merged adjacency = %v, want %v", adj, want)
	}
}

func TestMergeDuplicatesAcrossShards(t *testing.T) {
	// The same edge spilled into three runs must surface exactly once,
	// and interleaved keys must come out in global sorted order.
	c := testCorpus(t, 4, 1,
		[]uint64{key(0, 1), key(2, 0), key(2, 3)},
		[]uint64{key(0, 1), key(0, 3), key(2, 1)},
		[]uint64{key(0, 1), key(2, 0)},
	)
	adj := collectAdjacency(t, c)
	want := [][]int32{{1, 3}, nil, {0, 1, 3}, nil}
	if !reflect.DeepEqual(adj, want) {
		t.Fatalf("merged adjacency = %v, want %v", adj, want)
	}
}

func TestMergeWorkerInvariance(t *testing.T) {
	runs := [][]uint64{
		{key(0, 2), key(1, 1), key(3, 0)},
		{key(0, 1), key(1, 1), key(2, 2)},
		{key(0, 0), key(3, 0), key(3, 3)},
	}
	var ref [][]int32
	for _, workers := range []int{1, 2, 4} {
		c := testCorpus(t, 4, workers, runs...)
		adj := collectAdjacency(t, c)
		if ref == nil {
			ref = adj
			continue
		}
		if !reflect.DeepEqual(adj, ref) {
			t.Fatalf("workers=%d merged adjacency %v != workers=1 reference %v", workers, adj, ref)
		}
	}
}

func TestMergeRejectsOutOfRangePage(t *testing.T) {
	c := testCorpus(t, 2, 1, []uint64{key(0, 1), key(5, 0)})
	err := c.EachAdjacency(func(int32, []int32) error { return nil })
	if err == nil {
		t.Fatal("merge accepted a key beyond the corpus page count")
	}
}

func TestRunReaderRejectsCorruption(t *testing.T) {
	c := testCorpus(t, 3, 1, []uint64{key(0, 1), key(1, 2), key(2, 0)})
	raw, err := os.ReadFile(c.runs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip the trailer's CRC byte: every key still parses, so only the
	// streamed CRC verification at end-of-run can catch it.
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(c.runs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = c.EachAdjacency(func(int32, []int32) error { return nil })
	if err == nil {
		t.Fatal("merge accepted a run with a corrupt trailer")
	}
	if !errors.Is(err, durable.ErrCorrupt) && !errors.Is(err, ErrRunFormat) {
		t.Fatalf("corruption surfaced as untyped error: %v", err)
	}

	// A payload flip that keeps keys ordered still fails — the forged key
	// points past the corpus.
	raw[len(raw)-1] ^= 0xFF // restore trailer
	raw[runHeaderSize+3] ^= 0x40
	if err := os.WriteFile(c.runs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.EachAdjacency(func(int32, []int32) error { return nil }); err == nil {
		t.Fatal("merge accepted a run with a forged payload")
	}
}

func TestGenerateStreamMatchesGenerate(t *testing.T) {
	cfg := smallConfig(7)
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := ds.Pages.ToGraph()

	// A tiny buffer forces many spill runs; the merge must still replay
	// ToGraph's exact snapshot.
	c, err := GenerateStream(cfg, StreamOptions{Dir: t.TempDir(), BufferEdges: 512, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.runs) < 2 {
		t.Fatalf("BufferEdges=512 produced %d runs, want several", len(c.runs))
	}
	if c.NumPages != ds.Pages.NumPages() || c.NumSources != ds.Pages.NumSources() || c.NumLinks != ds.Pages.NumLinks() {
		t.Fatalf("corpus counts (%d pages, %d sources, %d links) != dataset (%d, %d, %d)",
			c.NumPages, c.NumSources, c.NumLinks,
			ds.Pages.NumPages(), ds.Pages.NumSources(), ds.Pages.NumLinks())
	}
	if !reflect.DeepEqual(c.SpamSources, ds.SpamSources) {
		t.Fatalf("spam labels diverge: streamed %v, in-RAM %v", c.SpamSources, ds.SpamSources)
	}
	rows := 0
	err = c.EachAdjacency(func(u int32, succ []int32) error {
		if !reflect.DeepEqual(append([]int32(nil), succ...), append([]int32(nil), ref.Successors(u)...)) {
			t.Fatalf("node %d: streamed succ %v != in-RAM %v", u, succ, ref.Successors(u))
		}
		rows++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != ref.NumNodes() {
		t.Fatalf("streamed %d rows, graph has %d nodes", rows, ref.NumNodes())
	}

	paths := c.Runs()
	if err := c.Remove(); err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("run %s survived Remove", path)
		}
	}
}

func TestGenerateStreamRequiresDir(t *testing.T) {
	if _, err := GenerateStream(smallConfig(1), StreamOptions{}); err == nil {
		t.Fatal("GenerateStream accepted an empty spill dir")
	}
}

// commitCounter counts the renames through which durable.WriteFile
// commits each spill run.
type commitCounter struct {
	*faultfs.FS
	commits int
}

func (c *commitCounter) Rename(o, n string) error {
	if err := c.FS.Rename(o, n); err != nil {
		return err
	}
	c.commits++
	return nil
}

// TestGenerateStreamFullDiskRemovesRuns fills the disk after three runs'
// worth of bytes: the spill that fails must take down every run
// committed before it, leaving the spill directory empty.
func TestGenerateStreamFullDiskRemovesRuns(t *testing.T) {
	const bufEdges = 256
	ffs := &commitCounter{FS: faultfs.New(nil)}
	maxRun := int64(runHeaderSize + 8*bufEdges + durable.TrailerSize)
	ffs.SetSpaceBudget(3*maxRun + maxRun/2)
	dir := t.TempDir()
	_, err := GenerateStreamPreset(UK2002, 0.002, 1, StreamOptions{Dir: dir, FS: ffs, BufferEdges: bufEdges})
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	if ffs.commits < 3 {
		t.Fatalf("%d runs committed before the fault, want >= 3", ffs.commits)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("spill dir holds %d files after the failed run, want none", len(left))
	}
}
