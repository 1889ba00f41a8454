// Package faultfs is a test-only durable.FS implementation that injects
// disk faults: short writes, fsync failures, read corruption,
// crash-at-offset (a byte budget after which every operation fails as if
// the process had died mid-write) and a full disk. The durable-layer and
// chaos tests use it to prove the commit protocol, the stream WAL and
// the spilled generator survive bad disks and arbitrary kill points.
//
// A crash is sticky: once the write budget is exhausted the filesystem
// returns ErrCrash for everything until Heal is called, which models a
// process restart on a healthy disk. Files committed before the crash
// remain readable after healing because the base filesystem is real. A
// full disk is not: past the space budget only writes fail, so the
// cleanup that follows the failure runs and can be observed.
package faultfs

import (
	"errors"
	"io/fs"
	"sync"
	"syscall"

	"sourcerank/internal/durable"
)

// ErrCrash reports an operation attempted after the injected crash point.
var ErrCrash = errors.New("faultfs: simulated crash")

// ErrSync reports an injected fsync failure.
var ErrSync = errors.New("faultfs: injected fsync failure")

// FS wraps a base durable.FS with injectable faults. The zero value is
// not usable; construct with New.
type FS struct {
	base durable.FS

	mu          sync.Mutex
	writeBudget int64 // bytes writable before the crash; <0 = unlimited
	space       int64 // bytes writable before the disk is full; <0 = unlimited
	crashed     bool
	failSyncs   int // next N Sync calls fail with ErrSync
	// corrupt, if set, may mutate every read buffer: name is the opened
	// path, off the file offset of p's first byte.
	corrupt func(name string, off int64, p []byte)

	writes int64 // total bytes written (diagnostics)
}

// New wraps base (nil selects durable.OS) with no faults armed.
func New(base durable.FS) *FS {
	if base == nil {
		base = durable.OS{}
	}
	return &FS{base: base, writeBudget: -1, space: -1}
}

// SetWriteBudget arms a crash after n more written bytes: the write that
// crosses the budget is cut short and fails with ErrCrash, and every
// subsequent operation fails with ErrCrash until Heal. n < 0 disarms.
func (f *FS) SetWriteBudget(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeBudget = n
	f.crashed = false
}

// SetSpaceBudget fills the disk after n more written bytes: the write
// that crosses the budget is cut short, and it and every later write fail
// with an error wrapping syscall.ENOSPC. Every other operation, Remove and
// ReadDir included, keeps working. n < 0 disarms.
func (f *FS) SetSpaceBudget(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.space = n
}

// Heal clears the crash state and the write budget, modelling a process
// restart on a healthy disk.
func (f *FS) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed = false
	f.writeBudget = -1
}

// FailNextSyncs makes the next n Sync calls fail with ErrSync.
func (f *FS) FailNextSyncs(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSyncs = n
}

// CorruptReads installs fn, which may mutate every buffer returned by
// reads; off is the file offset of p's first byte. Pass nil to disarm.
func (f *FS) CorruptReads(fn func(name string, off int64, p []byte)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.corrupt = fn
}

// BytesWritten returns the total bytes written through this FS.
func (f *FS) BytesWritten() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes
}

func (f *FS) alive() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrash
	}
	return nil
}

// consumeWrite charges n bytes against the budgets, returning how many
// may actually be written and whether this write triggers the crash or
// finds the disk full.
func (f *FS) consumeWrite(n int) (allowed int, crash, full bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return 0, true, false
	}
	allowed = n
	if f.space >= 0 && int64(allowed) > f.space {
		allowed, full = int(f.space), true
	}
	if f.writeBudget >= 0 {
		if int64(allowed) > f.writeBudget {
			// Short write: the crash lands mid-buffer.
			allowed, crash, full = int(f.writeBudget), true, false
			f.crashed = true
		}
		f.writeBudget -= int64(allowed)
	}
	if f.space >= 0 {
		f.space -= int64(allowed)
	}
	f.writes += int64(allowed)
	return allowed, crash, full
}

func (f *FS) syncFault() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrash
	}
	if f.failSyncs > 0 {
		f.failSyncs--
		return ErrSync
	}
	return nil
}

func (f *FS) Create(name string) (durable.File, error) {
	if err := f.alive(); err != nil {
		return nil, err
	}
	base, err := f.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, name: name, base: base}, nil
}

func (f *FS) Open(name string) (durable.File, error) {
	if err := f.alive(); err != nil {
		return nil, err
	}
	base, err := f.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, name: name, base: base}, nil
}

func (f *FS) Rename(o, n string) error {
	if err := f.alive(); err != nil {
		return err
	}
	return f.base.Rename(o, n)
}

func (f *FS) Remove(name string) error {
	if err := f.alive(); err != nil {
		return err
	}
	return f.base.Remove(name)
}

func (f *FS) ReadDir(name string) ([]fs.DirEntry, error) {
	if err := f.alive(); err != nil {
		return nil, err
	}
	return f.base.ReadDir(name)
}

func (f *FS) SyncDir(name string) error {
	if err := f.syncFault(); err != nil {
		return err
	}
	return f.base.SyncDir(name)
}

// file decorates a durable.File with the owner's faults.
type file struct {
	fs      *FS
	name    string
	base    durable.File
	readOff int64
}

func (f *file) Write(p []byte) (int, error) {
	allowed, crash, full := f.fs.consumeWrite(len(p))
	var n int
	var err error
	if allowed > 0 {
		n, err = f.base.Write(p[:allowed])
	}
	if crash {
		return n, ErrCrash
	}
	if full {
		return n, &fs.PathError{Op: "write", Path: f.name, Err: syscall.ENOSPC}
	}
	if err != nil {
		return n, err
	}
	if n < len(p) {
		return n, errors.New("faultfs: base short write")
	}
	return n, nil
}

func (f *file) Read(p []byte) (int, error) {
	if err := f.fs.alive(); err != nil {
		return 0, err
	}
	n, err := f.base.Read(p)
	f.fs.mu.Lock()
	corrupt := f.fs.corrupt
	f.fs.mu.Unlock()
	if corrupt != nil && n > 0 {
		corrupt(f.name, f.readOff, p[:n])
	}
	f.readOff += int64(n)
	return n, err
}

func (f *file) Sync() error {
	if err := f.fs.syncFault(); err != nil {
		return err
	}
	return f.base.Sync()
}

func (f *file) Close() error {
	// Close succeeds even after a crash so deferred cleanup in the
	// production code does not mask the crash error.
	return f.base.Close()
}
