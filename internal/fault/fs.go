package fault

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sync"
	"syscall"

	"edgetune/internal/store"
)

// FS wraps a store.FS with seeded disk-fault injection, driving the
// durability layer through the failure modes of real edge flash: torn
// writes, partial-write-then-crash, silent bit flips, ENOSPC, and slow
// fsyncs. A decision is keyed by what is written, not by when: a Write's
// site is its file's base name and a hash of its bytes, its attempt the
// occurrence of those bytes on that file, and a Sync takes the decisions
// of the writes it covers. A WAL frame carries no sequence number, so
// every same-seed run meets the same decisions however the flusher's
// group commits and the checkpoint appends interleave (DESIGN.md §4.14).
type FS struct {
	inner store.FS
	in    *Injector

	mu   sync.Mutex
	seen map[string]int // writes of each site so far
	dead bool
}

// NewFS wraps inner (nil = the real filesystem) with injection driven
// by in.
func NewFS(inner store.FS, in *Injector) *FS {
	if inner == nil {
		inner = store.OSFS{}
	}
	return &FS{inner: inner, in: in, seen: make(map[string]int)}
}

var _ store.FS = (*FS)(nil)

// Dead reports whether an injected DiskCrash killed this filesystem.
func (f *FS) Dead() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead
}

// frameOf keys a write of p to the file path: its site and the
// occurrence of those bytes there. It fails when the disk already
// crashed.
func (f *FS) frameOf(path string, p []byte) (frame, error) {
	h := fnv.New64a()
	h.Write(p)
	site := fmt.Sprintf("%s:%016x", path, h.Sum64())
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return frame{}, &Error{Class: DiskCrash, Site: "dead-disk"}
	}
	n := f.seen[site]
	f.seen[site] = n + 1
	return frame{site: site, attempt: n}, nil
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

// crashed is the error of an operation on path after a DiskCrash. It
// names the file by its base name, as Write and Sync do, so what a
// crash prints does not depend on where the store lives.
func crashed(path string) error {
	return &Error{Class: DiskCrash, Site: filepath.Base(path)}
}

// frame is the decision key of one write.
type frame struct {
	site    string
	attempt int
}

// faultFile wraps an open file; writes and fsyncs are where the disk
// classes fire. path is the file's base name: hashing the site without
// its directory keeps fault decisions identical for the same store
// opened anywhere (temp dirs, per-run scratch space). covered holds the
// writes landed since the last Sync, guarded by the FS's mutex.
type faultFile struct {
	f       store.File
	fs      *FS
	path    string
	covered []frame
}

// Write injects the write-path classes. A torn write lands a prefix
// and reports failure with the true byte count (so the WAL layer can
// repair); a crash lands a prefix and kills the filesystem; a bit flip
// corrupts one byte and reports success — only recovery's checksums
// can catch it; disk-full writes nothing. Only a write that reports
// success is covered by the next Sync.
func (w *faultFile) Write(p []byte) (int, error) {
	fr, err := w.fs.frameOf(w.path, p)
	if err != nil {
		return 0, err
	}
	in := w.fs.in
	if in.Should(DiskCrash, fr.site, fr.attempt) {
		n, _ := w.f.Write(p[:len(p)/2])
		w.f.Sync()
		w.fs.kill()
		return n, diskErr(DiskCrash, w.path, syscall.EIO)
	}
	if in.Should(DiskFull, fr.site, fr.attempt) {
		return 0, diskErr(DiskFull, w.path, syscall.ENOSPC)
	}
	if in.Should(DiskTornWrite, fr.site, fr.attempt) {
		torn := int(in.Uniform("torn/"+fr.site, fr.attempt) * float64(len(p)))
		if torn >= len(p) {
			torn = len(p) - 1
		}
		n, _ := w.f.Write(p[:torn])
		w.f.Sync()
		return n, diskErr(DiskTornWrite, w.path, syscall.EIO)
	}
	data := p
	if in.Should(DiskBitFlip, fr.site, fr.attempt) && len(p) > 0 {
		data = append([]byte(nil), p...)
		idx := int(in.Uniform("flip/"+fr.site, fr.attempt) * float64(len(data)))
		if idx >= len(data) {
			idx = len(data) - 1
		}
		data[idx] ^= 0x40
	}
	n, err := w.f.Write(data)
	if err == nil {
		w.fs.mu.Lock()
		w.covered = append(w.covered, fr)
		w.fs.mu.Unlock()
	}
	return n, err
}

// Sync injects crash-at-fsync and slow-fsync, taking the decisions of
// the writes it covers in the order they landed: it crashes at the
// first whose crash decision fires, and each whose slow decision fires
// counts one slow fsync. So a group commit of n frames decides what n
// commits of one frame would.
func (w *faultFile) Sync() error {
	w.fs.mu.Lock()
	dead, covered := w.fs.dead, w.covered
	w.covered = nil
	w.fs.mu.Unlock()
	if dead {
		return &Error{Class: DiskCrash, Site: "dead-disk"}
	}
	in := w.fs.in
	for _, fr := range covered {
		if in.Should(DiskCrash, "fsync/"+fr.site, fr.attempt) {
			w.fs.kill()
			return diskErr(DiskCrash, w.path, syscall.EIO)
		}
		// A slow fsync succeeds, slowly: the decision is all there is of
		// it, counted under the class by the injector's recorder.
		in.Should(DiskSlowFsync, fr.site, fr.attempt)
	}
	return w.f.Sync()
}

// Close always closes the real file (no fd leaks, even on a dead
// disk).
func (w *faultFile) Close() error { return w.f.Close() }

// ReadFile implements store.FS; reads are clean so recovery always
// sees exactly what the faults left on disk.
func (f *FS) ReadFile(path string) ([]byte, error) {
	if f.Dead() {
		return nil, crashed(path)
	}
	return f.inner.ReadFile(path)
}

// Create implements store.FS.
func (f *FS) Create(path string) (store.File, error) {
	if f.Dead() {
		return nil, crashed(path)
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
		return nil, crashed(path)
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
		return crashed(oldPath)
	}
	return f.inner.Rename(oldPath, newPath)
}

// Remove implements store.FS.
func (f *FS) Remove(path string) error {
	if f.Dead() {
		return crashed(path)
	}
	return f.inner.Remove(path)
}

// Truncate implements store.FS.
func (f *FS) Truncate(path string, size int64) error {
	if f.Dead() {
		return crashed(path)
	}
	return f.inner.Truncate(path, size)
}

// SyncDir implements store.FS.
func (f *FS) SyncDir(path string) error {
	if f.Dead() {
		return crashed(path)
	}
	return f.inner.SyncDir(path)
}

// Size implements store.FS.
func (f *FS) Size(path string) (int64, error) {
	if f.Dead() {
		return 0, crashed(path)
	}
	return f.inner.Size(path)
}
