package main

import (
	"bytes"
	"io/fs"
	"testing"

	"edgetune/internal/search"
	"edgetune/internal/store"
)

// memFS is an in-memory store.FS: enough of a filesystem for the
// durable store, and nothing the decorator could hide behind.
type memFS struct{ files map[string]*bytes.Buffer }

type memFile struct{ buf *bytes.Buffer }

func (f memFile) Write(p []byte) (int, error) { return f.buf.Write(p) }
func (memFile) Sync() error                   { return nil }
func (memFile) Close() error                  { return nil }

func (m *memFS) ReadFile(path string) ([]byte, error) {
	b, ok := m.files[path]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: path, Err: fs.ErrNotExist}
	}
	return bytes.Clone(b.Bytes()), nil
}

func (m *memFS) Create(path string) (store.File, error) {
	m.files[path] = &bytes.Buffer{}
	return memFile{m.files[path]}, nil
}

func (m *memFS) OpenAppend(path string) (store.File, error) {
	if m.files[path] == nil {
		m.files[path] = &bytes.Buffer{}
	}
	return memFile{m.files[path]}, nil
}

func (m *memFS) Rename(oldPath, newPath string) error {
	b, ok := m.files[oldPath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldPath, Err: fs.ErrNotExist}
	}
	m.files[newPath] = b
	delete(m.files, oldPath)
	return nil
}

func (m *memFS) Remove(path string) error { delete(m.files, path); return nil }

func (m *memFS) Truncate(path string, size int64) error {
	b, ok := m.files[path]
	if !ok {
		return &fs.PathError{Op: "truncate", Path: path, Err: fs.ErrNotExist}
	}
	b.Truncate(int(size))
	return nil
}

func (m *memFS) SyncDir(string) error { return nil }

func (m *memFS) Size(path string) (int64, error) {
	b, ok := m.files[path]
	if !ok {
		return 0, &fs.PathError{Op: "stat", Path: path, Err: fs.ErrNotExist}
	}
	return int64(b.Len()), nil
}

func TestCountingFSCountsWhatTheStoreDoes(t *testing.T) {
	mem := &memFS{files: map[string]*bytes.Buffer{}}
	rec := newRecorder()
	cfs := newCountingFS(mem, rec)
	open := func() *store.Durable {
		d, err := store.OpenDurable(store.DurableOptions{SnapshotPath: "s.json", FS: cfs})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := open()
	const puts = 5
	for i := 0; i < puts; i++ {
		e := store.Entry{Signature: "IC/layers=18", Device: "i7", Config: search.Config{"infer_batch": float64(i)}}
		if err := d.Store().Put(e); err != nil {
			t.Fatal(err)
		}
	}
	st := cfs.stats()
	if st.Writes != puts || st.Syncs != puts {
		t.Errorf("after %d puts: %d writes, %d syncs; want one of each per put", puts, st.Writes, st.Syncs)
	}
	if want := int64(mem.files["s.json.wal"].Len()); st.WriteBytes != want {
		t.Errorf("counted %d bytes, the WAL holds %d", st.WriteBytes, want)
	}
	if st.SnapshotWrites != 0 {
		t.Errorf("%d snapshot writes before any compaction", st.SnapshotWrites)
	}
	if len(st.syncDurNs) != int(st.Syncs) {
		t.Errorf("%d sync durations for %d syncs", len(st.syncDurNs), st.Syncs)
	}

	if err := d.Close(); err != nil { // compacts: tmp create + write + sync, rename, dir sync
		t.Fatal(err)
	}
	st = cfs.stats()
	if st.SnapshotWrites != 1 {
		t.Errorf("%d snapshot writes after Close, want 1", st.SnapshotWrites)
	}
	if want := int64(mem.files["s.json"].Len()); st.SnapshotBytes != want {
		t.Errorf("counted %d snapshot bytes, the snapshot holds %d", st.SnapshotBytes, want)
	}
	if st.Syncs != puts+2 { // the snapshot's fsync and its directory's
		t.Errorf("%d syncs after Close, want %d", st.Syncs, puts+2)
	}

	// The decorator must not change what the store reads back.
	re := open()
	defer re.Close()
	if got := re.Store().Len(); got != 1 {
		t.Errorf("reopened store holds %d entries, want 1", got)
	}

	// One span per write and per sync.
	byName := selfByName(rec.snapshot())
	if byName["fs.Write"].Count != int(cfs.stats().Writes) {
		t.Errorf("%d fs.Write spans for %d writes", byName["fs.Write"].Count, cfs.stats().Writes)
	}
	if got := byName["fs.Sync"].Count + byName["fs.SyncDir"].Count; got != int(cfs.stats().Syncs) {
		t.Errorf("%d sync spans for %d syncs", got, cfs.stats().Syncs)
	}
}
