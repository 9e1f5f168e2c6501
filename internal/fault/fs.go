package fault

import (
	"fmt"
	"path/filepath"
	"sync"
	"syscall"

	"edgetune/internal/store"
)

// FS wraps a store.FS with seeded disk-fault injection, driving the
// durability layer through the failure modes of real edge flash: torn
// writes, partial-write-then-crash, silent bit flips, ENOSPC, and slow
// fsyncs. Decisions come from the same (seed, class, site, attempt)
// hashing as every other fault class — site is the file path, attempt
// is a per-filesystem operation counter — so a run replays exactly
// from its seed.
type FS struct {
	inner store.FS
	in    *Injector

	mu   sync.Mutex
	op   int
	dead bool
}

// NewFS wraps inner (nil = the real filesystem) with injection driven
// by in.
func NewFS(inner store.FS, in *Injector) *FS {
	if inner == nil {
		inner = store.OSFS{}
	}
	return &FS{inner: inner, in: in}
}

var _ store.FS = (*FS)(nil)

// Dead reports whether an injected DiskCrash killed this filesystem.
func (f *FS) Dead() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead
}

// nextOp returns the next attempt number, or an error when the disk
// already crashed.
func (f *FS) nextOp() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return 0, &Error{Class: DiskCrash, Site: "dead-disk"}
	}
	f.op++
	return f.op, nil
}

func (f *FS) kill() {
	f.mu.Lock()
	f.dead = true
	f.mu.Unlock()
}

// diskErr builds a typed injected fault that also wraps errno, so both
// fault.IsFault and errors.Is(err, syscall.ENOSPC)-style checks work.
func diskErr(class Class, site string, errno error) error {
	return fmt.Errorf("%w: %w", &Error{Class: class, Site: site}, errno)
}

// faultFile wraps an open file; writes and fsyncs are where the disk
// classes fire. path is the file's base name: hashing the site without
// its directory keeps fault decisions identical for the same store
// opened anywhere (temp dirs, per-run scratch space).
type faultFile struct {
	f    store.File
	fs   *FS
	path string
}

// Write injects the write-path classes. A torn write lands a prefix
// and reports failure with the true byte count (so the WAL layer can
// repair); a crash lands a prefix and kills the filesystem; a bit flip
// corrupts one byte and reports success — only recovery's checksums
// can catch it; disk-full writes nothing.
func (w *faultFile) Write(p []byte) (int, error) {
	attempt, err := w.fs.nextOp()
	if err != nil {
		return 0, err
	}
	in := w.fs.in
	if in.Should(DiskCrash, w.path, attempt) {
		n, _ := w.f.Write(p[:len(p)/2])
		w.f.Sync()
		w.fs.kill()
		return n, diskErr(DiskCrash, w.path, syscall.EIO)
	}
	if in.Should(DiskFull, w.path, attempt) {
		return 0, diskErr(DiskFull, w.path, syscall.ENOSPC)
	}
	if in.Should(DiskTornWrite, w.path, attempt) {
		torn := int(in.Uniform("torn/"+w.path, attempt) * float64(len(p)))
		if torn >= len(p) {
			torn = len(p) - 1
		}
		n, _ := w.f.Write(p[:torn])
		w.f.Sync()
		return n, diskErr(DiskTornWrite, w.path, syscall.EIO)
	}
	if in.Should(DiskBitFlip, w.path, attempt) && len(p) > 0 {
		corrupt := append([]byte(nil), p...)
		idx := int(in.Uniform("flip/"+w.path, attempt) * float64(len(corrupt)))
		if idx >= len(corrupt) {
			idx = len(corrupt) - 1
		}
		corrupt[idx] ^= 0x40
		return w.f.Write(corrupt)
	}
	return w.f.Write(p)
}

// Sync injects crash-at-fsync and slow-fsync.
func (w *faultFile) Sync() error {
	attempt, err := w.fs.nextOp()
	if err != nil {
		return err
	}
	in := w.fs.in
	if in.Should(DiskCrash, "fsync/"+w.path, attempt) {
		w.fs.kill()
		return diskErr(DiskCrash, w.path, syscall.EIO)
	}
	// A slow fsync succeeds, slowly: the decision is all there is of it,
	// counted under the class by the injector's recorder.
	in.Should(DiskSlowFsync, w.path, attempt)
	return w.f.Sync()
}

// Close always closes the real file (no fd leaks, even on a dead
// disk).
func (w *faultFile) Close() error { return w.f.Close() }

// ReadFile implements store.FS; reads are clean so recovery always
// sees exactly what the faults left on disk.
func (f *FS) ReadFile(path string) ([]byte, error) {
	if f.Dead() {
		return nil, &Error{Class: DiskCrash, Site: path}
	}
	return f.inner.ReadFile(path)
}

// Create implements store.FS.
func (f *FS) Create(path string) (store.File, error) {
	if f.Dead() {
		return nil, &Error{Class: DiskCrash, Site: path}
	}
	file, err := f.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, fs: f, path: filepath.Base(path)}, nil
}

// OpenAppend implements store.FS.
func (f *FS) OpenAppend(path string) (store.File, error) {
	if f.Dead() {
		return nil, &Error{Class: DiskCrash, Site: path}
	}
	file, err := f.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, fs: f, path: filepath.Base(path)}, nil
}

// Rename implements store.FS.
func (f *FS) Rename(oldPath, newPath string) error {
	if f.Dead() {
		return &Error{Class: DiskCrash, Site: oldPath}
	}
	return f.inner.Rename(oldPath, newPath)
}

// Remove implements store.FS.
func (f *FS) Remove(path string) error {
	if f.Dead() {
		return &Error{Class: DiskCrash, Site: path}
	}
	return f.inner.Remove(path)
}

// Truncate implements store.FS.
func (f *FS) Truncate(path string, size int64) error {
	if f.Dead() {
		return &Error{Class: DiskCrash, Site: path}
	}
	return f.inner.Truncate(path, size)
}

// SyncDir implements store.FS.
func (f *FS) SyncDir(path string) error {
	if f.Dead() {
		return &Error{Class: DiskCrash, Site: path}
	}
	return f.inner.SyncDir(path)
}

// Size implements store.FS.
func (f *FS) Size(path string) (int64, error) {
	if f.Dead() {
		return 0, &Error{Class: DiskCrash, Site: path}
	}
	return f.inner.Size(path)
}
