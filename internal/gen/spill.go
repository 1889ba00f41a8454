package gen

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"

	"sourcerank/internal/durable"
	"sourcerank/internal/pagegraph"
)

// Shard-run file format (one sorted run of packed edges, committed through
// durable.WriteFile so every run carries a CRC32-C trailer):
//
//	offset 0   uint32  magic "SRER"
//	offset 4   uint32  version (1)
//	offset 8   uint64  key count
//	offset 16  count × uint64 packed keys, strictly increasing
//
// A key packs an edge as (uint64(from)<<32) | uint64(uint32(to)), so the
// natural uint64 order sorts by source page then target page — exactly the
// (sorted, deduplicated) adjacency order graph.Builder produces, which is
// what makes the k-way merge reproduce pagegraph.ToGraph bit-for-bit.
const (
	runMagic      = 0x53524552 // "SRER"
	runVersion    = 1
	runHeaderSize = 4 + 4 + 8
)

// DefaultSpillEdges is the default per-run buffer, in edges (8 bytes
// each): 4Mi edges = 32 MiB of spill buffer.
const DefaultSpillEdges = 1 << 22

// ErrRunFormat is the sentinel matched by errors.Is for every malformed
// shard-run file reported by this package.
var ErrRunFormat = errors.New("gen: malformed shard run")

// RunFormatError reports a shard-run file that failed structural
// validation, with the payload byte offset at which parsing failed.
type RunFormatError struct {
	Offset int64
	Reason string
}

func (e *RunFormatError) Error() string {
	return fmt.Sprintf("gen: malformed shard run at offset %d: %s", e.Offset, e.Reason)
}

func (e *RunFormatError) Is(target error) bool { return target == ErrRunFormat }

// StreamOptions configures GenerateStream's bounded-memory spill path.
type StreamOptions struct {
	// Dir is the spill directory for shard runs. It must exist.
	Dir string
	// FS routes all I/O; nil uses the real filesystem.
	FS durable.FS
	// BufferEdges caps the in-heap edge buffer per sorted run; <= 0
	// selects DefaultSpillEdges. Peak generator heap is ~8 bytes per
	// buffered edge plus the O(pages) community index.
	BufferEdges int
	// Workers bounds run-prefetch concurrency during merges; <= 0 means 1.
	// The merged order is a pure function of the run contents, so worker
	// count never changes what EachAdjacency emits.
	Workers int
}

// Corpus is a generated corpus whose edges live in on-disk shard runs
// rather than the heap. It exposes the merged adjacency as a streaming
// pass (EachAdjacency), which is all webgraph compression and transition
// slab construction need.
type Corpus struct {
	// NumPages, NumSources, and NumLinks mirror pagegraph.Graph's
	// accessors; NumLinks counts raw link emissions (parallel links
	// included), while the merged adjacency is deduplicated.
	NumPages   int
	NumSources int
	NumLinks   int64
	// SpamSources lists ground-truth spam source IDs, as Dataset does.
	SpamSources []int32
	// Name records the preset label, if any.
	Name string

	fsys    durable.FS
	runs    []string
	workers int
}

// NumNodes returns the page count; with EachAdjacency it satisfies
// webgraph.AdjacencySource.
func (c *Corpus) NumNodes() int { return c.NumPages }

// Runs returns the shard-run file paths backing the corpus.
func (c *Corpus) Runs() []string { return slices.Clone(c.runs) }

// Remove deletes the corpus's shard-run files.
func (c *Corpus) Remove() error {
	var first error
	for _, path := range c.runs {
		if err := c.fsys.Remove(path); err != nil && first == nil {
			first = err
		}
	}
	c.runs = nil
	return first
}

// GenerateStream builds a corpus from cfg without materializing its edge
// set: edges spill to sorted shard runs in opt.Dir as they are emitted,
// bounding generator RSS by opt.BufferEdges. The resulting corpus is
// bit-for-bit the one Generate produces — the RNG draw sequence is pinned
// by cfg alone — with EachAdjacency replaying pagegraph.ToGraph's sorted,
// deduplicated adjacency via a k-way merge of the runs.
func GenerateStream(cfg Config, opt StreamOptions) (*Corpus, error) {
	if opt.Dir == "" {
		return nil, errors.New("gen: GenerateStream requires StreamOptions.Dir")
	}
	fsys := opt.FS
	if fsys == nil {
		fsys = durable.OS{}
	}
	bufEdges := opt.BufferEdges
	if bufEdges <= 0 {
		bufEdges = DefaultSpillEdges
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = 1
	}
	sink := &spillSink{fsys: fsys, dir: opt.Dir, buf: make([]uint64, 0, bufEdges)}
	spam, err := generate(cfg, sink)
	if err == nil {
		err = sink.finish()
	}
	if err != nil {
		// The runs committed before the failure belong to no Corpus yet.
		_ = (&Corpus{fsys: fsys, runs: sink.runs}).Remove()
		return nil, err
	}
	return &Corpus{
		NumPages:    sink.numPages,
		NumSources:  sink.numSources,
		NumLinks:    sink.numLinks,
		SpamSources: spam,
		fsys:        fsys,
		runs:        sink.runs,
		workers:     workers,
	}, nil
}

// GenerateStreamPreset is GenerateStream over a named preset
// configuration, mirroring GeneratePreset.
func GenerateStreamPreset(p Preset, scale float64, seed uint64, opt StreamOptions) (*Corpus, error) {
	c, err := GenerateStream(PresetConfig(p, scale, seed), opt)
	if err != nil {
		return nil, err
	}
	c.Name = fmt.Sprintf("%s x%g seed=%d", p, scale, seed)
	return c, nil
}

// spillSink implements corpusSink by buffering packed edges and spilling
// sorted, per-run-deduplicated shard runs when the buffer fills. The sink
// interface cannot return errors, so the first I/O failure is latched and
// surfaced by finish.
type spillSink struct {
	fsys durable.FS
	dir  string
	buf  []uint64
	runs []string
	err  error

	numSources int
	numPages   int
	numLinks   int64
}

func (s *spillSink) AddSource(string) pagegraph.SourceID {
	id := pagegraph.SourceID(s.numSources)
	s.numSources++
	return id
}

func (s *spillSink) AddPage(src pagegraph.SourceID) pagegraph.PageID {
	if src < 0 || int(src) >= s.numSources {
		panic(fmt.Sprintf("gen: AddPage to unknown source %d", src))
	}
	id := pagegraph.PageID(s.numPages)
	s.numPages++
	return id
}

func (s *spillSink) AddLink(from, to pagegraph.PageID) {
	if from < 0 || int(from) >= s.numPages || to < 0 || int(to) >= s.numPages {
		panic(fmt.Sprintf("gen: AddLink(%d, %d) with %d pages", from, to, s.numPages))
	}
	s.numLinks++
	if s.err != nil {
		return
	}
	s.buf = append(s.buf, uint64(from)<<32|uint64(uint32(to)))
	if len(s.buf) == cap(s.buf) {
		s.spill()
	}
}

// spill sorts and deduplicates the buffered edges and commits them as one
// shard run. Cross-run duplicates survive; the merge deduplicates them.
func (s *spillSink) spill() {
	if len(s.buf) == 0 || s.err != nil {
		return
	}
	slices.Sort(s.buf)
	keys := slices.Compact(s.buf)
	path := filepath.Join(s.dir, fmt.Sprintf("run-%06d.srer", len(s.runs)))
	err := durable.WriteFile(s.fsys, path, func(w io.Writer) error {
		var hdr [runHeaderSize]byte
		le := binary.LittleEndian
		le.PutUint32(hdr[0:4], runMagic)
		le.PutUint32(hdr[4:8], runVersion)
		le.PutUint64(hdr[8:16], uint64(len(keys)))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		var block [8192]byte
		for off := 0; off < len(keys); {
			n := min(len(keys)-off, len(block)/8)
			for i := 0; i < n; i++ {
				le.PutUint64(block[i*8:], keys[off+i])
			}
			if _, err := w.Write(block[:n*8]); err != nil {
				return err
			}
			off += n
		}
		return nil
	})
	if err != nil {
		s.err = fmt.Errorf("gen: spill run %d: %w", len(s.runs), err)
		return
	}
	s.runs = append(s.runs, path)
	s.buf = s.buf[:0]
}

// finish flushes the final partial run and reports the first latched
// spill error.
func (s *spillSink) finish() error {
	s.spill()
	return s.err
}
