package main

import (
	"slices"
	"strings"
	"sync"
	"time"

	"edgetune/internal/store"
)

// fsStats is what the counting filesystem saw. Times are wall time
// spent inside the wrapped call.
type fsStats struct {
	Writes     int64
	WriteBytes int64
	WriteNs    int64
	Syncs      int64 // File.Sync and FS.SyncDir
	SyncNs     int64
	syncDurNs  []uint32

	// SnapshotWrites counts completed snapshot replacements: a Create of
	// a ".tmp" sibling later renamed over its target (the store's
	// atomic-write pair). SnapshotBytes is what was written to them.
	SnapshotWrites int64
	SnapshotBytes  int64
}

// syncP50Ms is the median duration of one sync, in milliseconds.
func (s fsStats) syncP50Ms() float64 {
	d := slices.Clone(s.syncDurNs)
	slices.Sort(d)
	return quantile(d, 0.5) / 1e6
}

// countingFS decorates a store.FS, counting and timing the writes and
// syncs that pass through it and recording each as a span. Only the
// traced run uses it; the measured run sees the plain store.OSFS.
type countingFS struct {
	store.FS
	rec *recorder

	mu      sync.Mutex
	st      fsStats
	tmpSize map[string]int64 // bytes written to each open ".tmp" file
}

func newCountingFS(inner store.FS, rec *recorder) *countingFS {
	return &countingFS{FS: inner, rec: rec, tmpSize: make(map[string]int64)}
}

// stats copies the counters.
func (c *countingFS) stats() fsStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.st
	s.syncDurNs = slices.Clone(c.st.syncDurNs)
	return s
}

func (c *countingFS) wrap(path string, f store.File, err error) (store.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, path: path}, nil
}

// Create implements store.FS.
func (c *countingFS) Create(path string) (store.File, error) {
	if strings.HasSuffix(path, ".tmp") {
		c.mu.Lock()
		c.tmpSize[path] = 0
		c.mu.Unlock()
	}
	f, err := c.FS.Create(path)
	return c.wrap(path, f, err)
}

// OpenAppend implements store.FS.
func (c *countingFS) OpenAppend(path string) (store.File, error) {
	f, err := c.FS.OpenAppend(path)
	return c.wrap(path, f, err)
}

// Rename implements store.FS; renaming a ".tmp" file over its target
// completes a snapshot write.
func (c *countingFS) Rename(oldPath, newPath string) error {
	err := c.FS.Rename(oldPath, newPath)
	c.mu.Lock()
	if n, ok := c.tmpSize[oldPath]; ok {
		delete(c.tmpSize, oldPath)
		if err == nil {
			c.st.SnapshotWrites++
			c.st.SnapshotBytes += n
		}
	}
	c.mu.Unlock()
	return err
}

// SyncDir implements store.FS.
func (c *countingFS) SyncDir(path string) error {
	id := c.rec.begin(0, "fs.SyncDir", 0)
	t := time.Now()
	err := c.FS.SyncDir(path)
	c.synced(time.Since(t))
	c.rec.end(id)
	return err
}

func (c *countingFS) synced(d time.Duration) {
	c.mu.Lock()
	c.st.Syncs++
	c.st.SyncNs += int64(d)
	c.st.syncDurNs = append(c.st.syncDurNs, uint32(min(d, time.Duration(^uint32(0)))))
	c.mu.Unlock()
}

// countingFile decorates one open file.
type countingFile struct {
	store.File
	fs   *countingFS
	path string
}

// Write implements io.Writer.
func (f *countingFile) Write(p []byte) (int, error) {
	c := f.fs
	id := c.rec.begin(0, "fs.Write", 0)
	t := time.Now()
	n, err := f.File.Write(p)
	d := time.Since(t)
	c.rec.end(id)
	c.mu.Lock()
	c.st.Writes++
	c.st.WriteBytes += int64(n)
	c.st.WriteNs += int64(d)
	if _, ok := c.tmpSize[f.path]; ok {
		c.tmpSize[f.path] += int64(n)
	}
	c.mu.Unlock()
	return n, err
}

// Sync implements store.File.
func (f *countingFile) Sync() error {
	id := f.fs.rec.begin(0, "fs.Sync", 0)
	t := time.Now()
	err := f.File.Sync()
	f.fs.synced(time.Since(t))
	f.fs.rec.end(id)
	return err
}
