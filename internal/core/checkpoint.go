package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strings"

	"sourcerank/internal/durable"
	"sourcerank/internal/linalg"
)

// Checkpointing wraps the SRSR solve so a crash mid-computation
// loses at most Every iterations instead of the whole solve. Every N
// iterations the current iterate is committed to the checkpoint
// directory through internal/durable (atomic rename + CRC trailer); on
// the next run the newest valid checkpoint whose graph fingerprint
// matches is used as the warm start, and the iterate sequence — hence
// the final vector — is bit-identical to an uninterrupted run, because
// the parallel SpMV partitions rows and sums each row sequentially, so
// results do not depend on worker count or timing.

// CheckpointConfig configures the resumable solve.
type CheckpointConfig struct {
	// Dir is the checkpoint directory. It must exist.
	Dir string
	// Every is the number of iterations between checkpoints; <= 0
	// defaults to 10. The two newest checkpoints are kept, older ones
	// pruned after each successful write.
	Every int
	// FS overrides the filesystem (fault-injection tests); nil selects
	// the real one.
	FS durable.FS
}

func (c CheckpointConfig) every() int {
	if c.Every <= 0 {
		return 10
	}
	return c.Every
}

func (c CheckpointConfig) fs() durable.FS {
	if c.FS == nil {
		return durable.OS{}
	}
	return c.FS
}

// CheckpointInfo reports what the resumable solve did.
type CheckpointInfo struct {
	// ResumedFrom is the iteration of the checkpoint the solve warm-
	// started from; 0 means a cold start.
	ResumedFrom int
	// Written counts checkpoints committed during this run.
	Written int
	// Discarded counts checkpoint files rejected during resume because
	// they were corrupt or their graph fingerprint did not match.
	Discarded int
}

// Checkpoint payload layout (committed inside a durable frame):
//
//	uint32 magic "SRCK", uint32 version,
//	uint64 node count, uint64 graph hash, uint64 iteration,
//	then the iterate as a linalg vector stream.
//
// Version 2 iterates are those of the scheme Config picks (Jacobi's for a
// throttled solve); version 1 files hold power iterates and are discarded.
const (
	ckptMagic   = 0x5352434B // "SRCK"
	ckptVersion = 2
	ckptPrefix  = "ckpt-"
	ckptSuffix  = ".srck"
)

// ErrCheckpointInvalid reports a checkpoint file that failed structural
// or fingerprint validation (corrupt frames surface durable.ErrCorrupt).
var ErrCheckpointInvalid = errors.New("core: invalid checkpoint")

// fingerprint identifies the solve a checkpoint belongs to: node count
// plus a 64-bit hash of the throttled matrix structure, weights, α, and
// the warm-start lineage. A checkpoint recorded against a different
// crawl, throttle vector, mixing parameter, or initial iterate must not
// be resumed: two solves from different x0 pass through different
// iterate sequences even though they share a fixed point, so mixing
// their checkpoints would break the bit-identical-resume guarantee.
type fingerprint struct {
	nodes uint64
	hash  uint64
}

func fingerprintOf(t *linalg.CSR, alpha float64, x0 linalg.Vector) fingerprint {
	h := fnv.New64a()
	le := binary.LittleEndian
	var buf [8]byte
	put := func(x uint64) {
		le.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(t.Rows))
	put(uint64(t.NNZ()))
	put(math.Float64bits(alpha))
	for _, p := range t.RowPtr {
		put(uint64(p))
	}
	for _, c := range t.Cols {
		put(uint64(c))
	}
	for _, v := range t.Vals {
		put(math.Float64bits(v))
	}
	// Warm-start provenance: a cold start (nil x0, i.e. the teleport
	// vector) hashes a sentinel; a warm start hashes every iterate bit.
	if x0 == nil {
		put(0)
	} else {
		put(1)
		put(uint64(len(x0)))
		for _, v := range x0 {
			put(math.Float64bits(v))
		}
	}
	return fingerprint{nodes: uint64(t.Rows), hash: h.Sum64()}
}

func checkpointPath(dir string, iter int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%012d%s", ckptPrefix, iter, ckptSuffix))
}

// writeCheckpoint commits the iterate at the given absolute iteration.
func writeCheckpoint(fsys durable.FS, dir string, fp fingerprint, iter int, x linalg.Vector) error {
	return durable.WriteFile(fsys, checkpointPath(dir, iter), func(w io.Writer) error {
		le := binary.LittleEndian
		if err := binary.Write(w, le, uint32(ckptMagic)); err != nil {
			return err
		}
		if err := binary.Write(w, le, uint32(ckptVersion)); err != nil {
			return err
		}
		if err := binary.Write(w, le, fp.nodes); err != nil {
			return err
		}
		if err := binary.Write(w, le, fp.hash); err != nil {
			return err
		}
		if err := binary.Write(w, le, uint64(iter)); err != nil {
			return err
		}
		return linalg.WriteVector(w, x)
	})
}

// parseCheckpoint validates a checkpoint payload against the expected
// fingerprint and returns the iterate and its iteration number.
func parseCheckpoint(payload []byte, fp fingerprint) (linalg.Vector, int, error) {
	r := bytes.NewReader(payload)
	le := binary.LittleEndian
	var magic, ver uint32
	if err := binary.Read(r, le, &magic); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCheckpointInvalid, err)
	}
	if magic != ckptMagic {
		return nil, 0, fmt.Errorf("%w: bad magic %#x", ErrCheckpointInvalid, magic)
	}
	if err := binary.Read(r, le, &ver); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCheckpointInvalid, err)
	}
	if ver != ckptVersion {
		return nil, 0, fmt.Errorf("%w: unsupported version %d", ErrCheckpointInvalid, ver)
	}
	var nodes, hash, iter uint64
	if err := binary.Read(r, le, &nodes); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCheckpointInvalid, err)
	}
	if err := binary.Read(r, le, &hash); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCheckpointInvalid, err)
	}
	if err := binary.Read(r, le, &iter); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCheckpointInvalid, err)
	}
	if nodes != fp.nodes || hash != fp.hash {
		return nil, 0, fmt.Errorf("%w: fingerprint mismatch (checkpoint %d/%#x, graph %d/%#x)",
			ErrCheckpointInvalid, nodes, hash, fp.nodes, fp.hash)
	}
	x, err := linalg.ReadVector(r)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCheckpointInvalid, err)
	}
	if uint64(len(x)) != nodes {
		return nil, 0, fmt.Errorf("%w: iterate length %d, fingerprint says %d nodes",
			ErrCheckpointInvalid, len(x), nodes)
	}
	return x, int(iter), nil
}

// listCheckpoints returns committed checkpoint file names in the
// directory, newest (highest iteration) first.
func listCheckpoints(fsys durable.FS, dir string) ([]string, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, ckptPrefix) && strings.HasSuffix(name, ckptSuffix) {
			names = append(names, name)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names))) // zero-padded iteration sorts lexically
	return names, nil
}

// resumeCheckpoint loads the newest valid checkpoint matching fp.
// Corrupt files and fingerprint mismatches are discarded (removed
// best-effort) and the scan continues; with nothing valid it returns a
// nil iterate for a cold start.
func resumeCheckpoint(fsys durable.FS, dir string, fp fingerprint, info *CheckpointInfo) (linalg.Vector, int, error) {
	names, err := listCheckpoints(fsys, dir)
	if err != nil {
		return nil, 0, err
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		payload, err := durable.ReadFile(fsys, path)
		if err != nil {
			if errors.Is(err, durable.ErrCorrupt) {
				info.Discarded++
				_ = fsys.Remove(path)
				continue
			}
			return nil, 0, err
		}
		x, iter, err := parseCheckpoint(payload, fp)
		if err != nil {
			info.Discarded++
			_ = fsys.Remove(path)
			continue
		}
		return x, iter, nil
	}
	return nil, 0, nil
}

// pruneCheckpoints removes all but the keep newest checkpoints.
func pruneCheckpoints(fsys durable.FS, dir string, keep int) {
	names, err := listCheckpoints(fsys, dir)
	if err != nil {
		return
	}
	for _, name := range names[min(keep, len(names)):] {
		_ = fsys.Remove(filepath.Join(dir, name))
	}
}

// clearCheckpoints removes every checkpoint after a completed solve.
func clearCheckpoints(fsys durable.FS, dir string) {
	names, err := listCheckpoints(fsys, dir)
	if err != nil {
		return
	}
	for _, name := range names {
		_ = fsys.Remove(filepath.Join(dir, name))
	}
}

// checkpointRun is one checkpointed solve (see rank): the configuration,
// the throttled matrix the fingerprint covers, and the account it keeps.
type checkpointRun struct {
	CheckpointConfig
	tpp  *linalg.CSR
	info *CheckpointInfo
}

// arm prepares the iteration of the solve: it returns the iterate
// to start from — the newest valid checkpoint whose fingerprint matches,
// else x0 — and the Progress hook that commits the iterate every Every
// iterations, keeping two.
func (r *checkpointRun) arm(cfg Config, x0 linalg.Vector) (linalg.Vector, func(int, linalg.Vector) error, error) {
	fsys := r.fs()
	fp := fingerprintOf(r.tpp, cfg.alpha(), x0)
	resumed, startIter, err := resumeCheckpoint(fsys, r.Dir, fp, r.info)
	if err != nil {
		return nil, nil, fmt.Errorf("core: scanning checkpoints: %w", err)
	}
	r.info.ResumedFrom = startIter
	if resumed != nil {
		x0 = resumed
	}
	every := r.every()
	return x0, func(iter int, x linalg.Vector) error {
		if iter%every != 0 {
			return nil
		}
		if err := writeCheckpoint(fsys, r.Dir, fp, startIter+iter, x); err != nil {
			return fmt.Errorf("core: writing checkpoint at iteration %d: %w", startIter+iter, err)
		}
		r.info.Written++
		pruneCheckpoints(fsys, r.Dir, 2)
		return nil
	}, nil
}
