package store

import (
	"errors"
	"fmt"
	"io/fs"
)

// ScrubReport is the result of a read-only integrity check over a
// durable store's on-disk files — what recovery would find, without
// performing it.
type ScrubReport struct {
	SnapshotPath string `json:"snapshotPath"`
	WALPath      string `json:"walPath"`

	// SnapshotPresent/SnapshotValid describe the current snapshot
	// generation; SnapshotError is its parse error when invalid.
	SnapshotPresent bool   `json:"snapshotPresent"`
	SnapshotValid   bool   `json:"snapshotValid"`
	SnapshotError   string `json:"snapshotError,omitempty"`
	// PrevPresent/PrevValid describe the previous generation kept by
	// compaction (the recovery fallback).
	PrevPresent bool `json:"prevPresent"`
	PrevValid   bool `json:"prevValid"`

	WALPresent bool `json:"walPresent"`
	// WALRecords counts checksum-valid records; WALQuarantined counts
	// frames a recovery would quarantine; WALTornBytes is the torn tail
	// a recovery would truncate.
	WALRecords     int   `json:"walRecords"`
	WALQuarantined int   `json:"walQuarantined"`
	WALTornBytes   int64 `json:"walTornBytes"`

	// Entries/Checkpoints are the logical state a recovery would
	// reconstruct (newest valid snapshot + WAL replay).
	Entries     int `json:"entries"`
	Checkpoints int `json:"checkpoints"`

	// Clean reports a store with no corruption anywhere: every present
	// file parses, no quarantined frames, no torn tail.
	Clean bool `json:"clean"`
}

// Scrub verifies the on-disk files of a durable store without
// modifying them (or the need for the store to be closed — it reads a
// point-in-time view). It returns an error only for real I/O failures;
// corruption is reported in the ScrubReport, never as an error.
func Scrub(fsys FS, snapPath, walPath string) (ScrubReport, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	if walPath == "" {
		walPath = snapPath + ".wal"
	}
	rep := ScrubReport{SnapshotPath: snapPath, WALPath: walPath}

	// The state is rebuilt the way recovery rebuilds it, through the
	// same apply path.
	st := New()

	data, err := fsys.ReadFile(snapPath)
	switch {
	case err == nil:
		rep.SnapshotPresent = true
		if file, perr := parseStoreFile(data); perr == nil {
			rep.SnapshotValid = true
			st.applyStoreFile(file)
		} else {
			rep.SnapshotError = perr.Error()
		}
	case !errors.Is(err, fs.ErrNotExist):
		return rep, fmt.Errorf("store: scrub read %s: %w", snapPath, err)
	}

	data, err = fsys.ReadFile(snapPath + ".prev")
	switch {
	case err == nil:
		rep.PrevPresent = true
		if file, perr := parseStoreFile(data); perr == nil {
			rep.PrevValid = true
			if !rep.SnapshotValid {
				st.applyStoreFile(file)
			}
		}
	case !errors.Is(err, fs.ErrNotExist):
		return rep, fmt.Errorf("store: scrub read %s.prev: %w", snapPath, err)
	}

	data, err = fsys.ReadFile(walPath)
	switch {
	case err == nil:
		rep.WALPresent = true
		sc := scanWAL(data)
		rep.WALRecords = len(sc.Records)
		rep.WALQuarantined = len(sc.Quarantined)
		rep.WALTornBytes = sc.TruncatedBytes
		st.applyRecords(sc.Records)
	case !errors.Is(err, fs.ErrNotExist):
		return rep, fmt.Errorf("store: scrub read %s: %w", walPath, err)
	}

	rep.Entries = st.Len()
	rep.Checkpoints = len(st.CheckpointKeys())
	rep.Clean = (!rep.SnapshotPresent || rep.SnapshotValid) &&
		(!rep.PrevPresent || rep.PrevValid) &&
		rep.WALQuarantined == 0 && rep.WALTornBytes == 0
	return rep, nil
}
