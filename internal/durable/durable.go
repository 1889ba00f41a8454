// Package durable implements the crash-safe file commit protocol used by
// every on-disk artifact the pipeline publishes: score vectors, matrix
// slabs, generator spill runs and the stream's write-ahead log.
//
// A commit writes the payload to a temporary file in the destination
// directory, appends a CRC32-C trailer frame over the payload, fsyncs the
// file, atomically renames it into place, and fsyncs the directory. A
// reader therefore observes either the old file, the new file, or no file
// — never a torn write. Corruption that slips past the filesystem (bit
// rot, truncation, a partial copy) is caught by the trailer check and
// reported as a typed *CorruptError carrying the byte offset at which
// verification failed.
//
// All operations go through the FS seam so tests can inject short writes,
// fsync failures, read corruption, and crash-at-offset faults (see
// internal/faultfs).
package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the commit protocol needs.
type File interface {
	io.Reader
	io.Writer
	Sync() error
	Close() error
}

// FS abstracts the filesystem operations of the commit protocol. OS is
// the production implementation; internal/faultfs injects faults behind
// the same interface.
type FS interface {
	Create(name string) (File, error)
	Open(name string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	// SyncDir fsyncs the directory itself so a rename survives power loss.
	SyncDir(name string) error
}

// OS is the passthrough FS backed by the os package.
type OS struct{}

func (OS) Create(name string) (File, error) { return os.Create(name) }
func (OS) Open(name string) (File, error)   { return os.Open(name) }
func (OS) Rename(o, n string) error         { return os.Rename(o, n) }
func (OS) Remove(name string) error         { return os.Remove(name) }
func (OS) ReadDir(name string) ([]fs.DirEntry, error) {
	return os.ReadDir(name)
}

func (OS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Trailer frame: appended after the payload of every committed file.
//
//	uint32 trailerMagic  ("SRDF")
//	uint64 payload length
//	uint32 CRC32-C of the payload
const (
	trailerMagic = 0x53524446 // "SRDF"
	// TrailerSize is the byte length of the trailer frame.
	TrailerSize = 4 + 8 + 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is the sentinel matched by errors.Is for every corruption
// *CorruptError reported by this package.
var ErrCorrupt = errors.New("durable: corrupt file")

// CorruptError reports a file that failed trailer verification, with the
// byte offset at which the check failed.
type CorruptError struct {
	Path   string // file path, "" when verifying an in-memory frame
	Offset int64  // byte offset where verification failed
	Reason string
}

func (e *CorruptError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("durable: corrupt frame at offset %d: %s", e.Offset, e.Reason)
	}
	return fmt.Sprintf("durable: %s: corrupt at offset %d: %s", e.Path, e.Offset, e.Reason)
}

func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// WriteFile atomically commits the payload produced by write to path:
// temp file, CRC32-C trailer, fsync, rename, directory fsync. On any
// error the temp file is removed and path is left untouched (the previous
// committed version, if any, stays readable). The io.Writer handed to
// write is buffered; write must not retain it.
func WriteFile(fsys FS, path string, write func(io.Writer) error) (err error) {
	if fsys == nil {
		fsys = OS{}
	}
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	committed := false
	defer func() {
		if !committed {
			// Best-effort cleanup; the original error wins.
			_ = fsys.Remove(tmp)
		}
	}()
	cw := &crcWriter{w: bufio.NewWriter(f), crc: crc32.New(castagnoli)}
	if err := write(cw); err != nil {
		_ = f.Close()
		return err
	}
	var trailer [TrailerSize]byte
	le := binary.LittleEndian
	le.PutUint32(trailer[0:4], trailerMagic)
	le.PutUint64(trailer[4:12], uint64(cw.n))
	le.PutUint32(trailer[12:16], cw.crc.Sum32())
	if _, err := cw.w.Write(trailer[:]); err != nil {
		_ = f.Close()
		return err
	}
	if err := cw.w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	committed = true
	dir := filepath.Dir(path)
	if err := fsys.SyncDir(dir); err != nil {
		return err
	}
	return nil
}

// crcWriter tees payload bytes into the running checksum and length.
type crcWriter struct {
	w   *bufio.Writer
	crc hash.Hash32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc.Write(p[:n])
	c.n += int64(n)
	return n, err
}

// Frame returns payload with the trailer frame appended, producing bytes
// that Verify accepts. It is the in-memory half of the commit protocol,
// used where verified bytes travel over a wire instead of through a
// rename — e.g. snapshot distribution to replicas — so receivers reject
// torn or bit-flipped transfers with the same CRC machinery that guards
// the on-disk artifacts.
func Frame(payload []byte) []byte {
	out := make([]byte, len(payload)+TrailerSize)
	copy(out, payload)
	le := binary.LittleEndian
	t := out[len(payload):]
	le.PutUint32(t[0:4], trailerMagic)
	le.PutUint64(t[4:12], uint64(len(payload)))
	le.PutUint32(t[12:16], crc32.Checksum(payload, castagnoli))
	return out
}

// Verify checks the trailer frame of data and returns the payload with
// the trailer stripped. Errors are *CorruptError (Path unset).
func Verify(data []byte) ([]byte, error) {
	if len(data) < TrailerSize {
		return nil, &CorruptError{
			Offset: int64(len(data)),
			Reason: fmt.Sprintf("file is %d bytes, shorter than the %d-byte trailer", len(data), TrailerSize),
		}
	}
	le := binary.LittleEndian
	off := int64(len(data) - TrailerSize)
	trailer := data[off:]
	if got := le.Uint32(trailer[0:4]); got != trailerMagic {
		return nil, &CorruptError{
			Offset: off,
			Reason: fmt.Sprintf("bad trailer magic %#x (truncated or unframed file?)", got),
		}
	}
	if got := le.Uint64(trailer[4:12]); got != uint64(off) {
		return nil, &CorruptError{
			Offset: off + 4,
			Reason: fmt.Sprintf("trailer declares %d payload bytes, file holds %d", got, off),
		}
	}
	payload := data[:off]
	want := le.Uint32(trailer[12:16])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, &CorruptError{
			Offset: off + 12,
			Reason: fmt.Sprintf("CRC32-C mismatch: payload hashes to %#x, trailer says %#x", got, want),
		}
	}
	return payload, nil
}

// CheckTrailer validates a trailer frame against a payload length and
// CRC32-C accumulated while streaming the payload. It is the sequential
// counterpart of Verify for readers that cannot afford to buffer the
// whole file: read the payload once, feed it through a crc32 Castagnoli
// hash, then hand the final TrailerSize bytes here. Errors are
// *CorruptError with Offset relative to the trailer start.
func CheckTrailer(trailer []byte, payloadLen int64, crc uint32) error {
	if len(trailer) != TrailerSize {
		return &CorruptError{
			Offset: int64(len(trailer)),
			Reason: fmt.Sprintf("trailer is %d bytes, want %d", len(trailer), TrailerSize),
		}
	}
	le := binary.LittleEndian
	if got := le.Uint32(trailer[0:4]); got != trailerMagic {
		return &CorruptError{
			Offset: 0,
			Reason: fmt.Sprintf("bad trailer magic %#x (truncated or unframed file?)", got),
		}
	}
	if got := le.Uint64(trailer[4:12]); got != uint64(payloadLen) {
		return &CorruptError{
			Offset: 4,
			Reason: fmt.Sprintf("trailer declares %d payload bytes, reader consumed %d", got, payloadLen),
		}
	}
	if want := le.Uint32(trailer[12:16]); want != crc {
		return &CorruptError{
			Offset: 12,
			Reason: fmt.Sprintf("CRC32-C mismatch: payload hashes to %#x, trailer says %#x", crc, want),
		}
	}
	return nil
}

// CRC32C returns a running CRC32-C (Castagnoli) hash, matching the
// checksum WriteFile commits in the trailer frame. Streaming readers pair
// it with CheckTrailer.
func CRC32C() hash.Hash32 { return crc32.New(castagnoli) }

// ReadFile reads a file committed by WriteFile, verifies its trailer, and
// returns the payload. Corruption is reported as *CorruptError carrying
// path and offset context.
func ReadFile(fsys FS, path string) ([]byte, error) {
	data, err := ReadRaw(fsys, path)
	if err != nil {
		return nil, err
	}
	payload, err := Verify(data)
	if err != nil {
		var ce *CorruptError
		if errors.As(err, &ce) {
			ce.Path = path
		}
		return nil, err
	}
	return payload, nil
}

// ReadRaw reads the full contents of path through fsys without trailer
// verification. Callers that must accept legacy unframed files (format
// version 1) use it and dispatch on their own header version.
func ReadRaw(fsys FS, path string) ([]byte, error) {
	if fsys == nil {
		fsys = OS{}
	}
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}
