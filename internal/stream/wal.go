package stream

import (
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"sourcerank/internal/durable"
)

// WAL is the batch write-ahead log: one durable.WriteFile-committed file
// per batch, named by sequence number. A batch is only applied to the
// in-memory graphs after its log entry is durably committed, so a crash
// between the two is recovered by replay — the log's complete prefix IS
// the authoritative delta history since the base corpus.
//
// Crash atomicity comes from durable.WriteFile's temp+rename+fsync
// protocol: a batch file either exists with a verified checksum or not
// at all; interrupted writes leave only temp files, which recovery
// ignores.
type WAL struct {
	fs      durable.FS
	dir     string
	lastSeq uint64
}

const walSuffix = ".batch"

func walName(seq uint64) string { return fmt.Sprintf("%016d%s", seq, walSuffix) }

// OpenWAL opens (or starts) the log in dir and returns the recovered
// batches in sequence order, ready to replay onto an ingestor built from
// the base corpus. fsys nil selects the real filesystem. The directory
// must already exist. Files that are not committed batch entries (temp
// files from interrupted writes, unrelated names) are ignored; a
// committed entry that fails its checksum or decode is a real error.
func OpenWAL(fsys durable.FS, dir string) (*WAL, []Batch, error) {
	if fsys == nil {
		fsys = durable.OS{}
	}
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("stream: opening wal: %w", err)
	}
	var batches []Batch
	w := &WAL{fs: fsys, dir: dir}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, walSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, walSuffix), 10, 64)
		if err != nil {
			continue
		}
		data, err := durable.ReadFile(fsys, filepath.Join(dir, name))
		if err != nil {
			return nil, nil, fmt.Errorf("stream: wal entry %s: %w", name, err)
		}
		b, err := DecodeBatch(data)
		if err != nil {
			return nil, nil, fmt.Errorf("stream: wal entry %s: %w", name, err)
		}
		if b.Seq != seq {
			return nil, nil, fmt.Errorf("stream: wal entry %s holds seq %d", name, b.Seq)
		}
		batches = append(batches, b)
		if seq > w.lastSeq {
			w.lastSeq = seq
		}
	}
	slices.SortFunc(batches, func(a, b Batch) int {
		switch {
		case a.Seq < b.Seq:
			return -1
		case a.Seq > b.Seq:
			return 1
		}
		return 0
	})
	return w, batches, nil
}

// LastSeq is the highest durably logged sequence number (0 when empty).
func (w *WAL) LastSeq() uint64 { return w.lastSeq }

// Append durably commits b to the log. On error nothing was logged (an
// entry is only visible once its rename commits) — except a crash
// between rename and the directory fsync, where the entry may survive;
// recovery's replay plus the ingestor's sequence check make that safe.
func (w *WAL) Append(b Batch) error {
	if b.Seq <= w.lastSeq {
		return fmt.Errorf("%w: wal seq %d, logged through %d", ErrStaleSeq, b.Seq, w.lastSeq)
	}
	path := filepath.Join(w.dir, walName(b.Seq))
	if err := durable.WriteFile(w.fs, path, func(f io.Writer) error {
		return EncodeBatch(f, b)
	}); err != nil {
		return fmt.Errorf("stream: wal append seq %d: %w", b.Seq, err)
	}
	w.lastSeq = b.Seq
	return nil
}
