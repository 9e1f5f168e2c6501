package store

// ScrubReport is what opening a durable store's files would salvage,
// found without opening them: the RecoveryReport that OpenDurable
// would make, and whether its repairs would touch anything.
type ScrubReport struct {
	SnapshotPath string `json:"snapshotPath"`
	WALPath      string `json:"walPath"`
	RecoveryReport
	// SnapshotError is the parse error of the first snapshot generation
	// recovery would quarantine ("" when it would quarantine none).
	SnapshotError string `json:"snapshotError,omitempty"`
	// Clean reports files recovery would take as they are: no snapshot
	// generation or record quarantined, no torn tail truncated.
	Clean bool `json:"clean"`
}

// Scrub is recovery without the repairs: it reads the files of the
// durable store whose snapshot is snapPath (and whose WAL is
// snapPath + ".wal") exactly as OpenDurable does, and modifies none of
// them, nor needs the store closed — it reads a point-in-time view. It
// returns an error only for real I/O failures; corruption is reported
// in the ScrubReport, never as an error.
func Scrub(snapPath string) (ScrubReport, error) {
	rep := ScrubReport{SnapshotPath: snapPath, WALPath: snapPath + ".wal"}
	f, err := readFiles(OSFS{}, rep.SnapshotPath, rep.WALPath, New())
	rep.RecoveryReport = f.report
	if f.corruptErr != nil {
		rep.SnapshotError = f.corruptErr.Error()
	}
	rep.Clean = !rep.SnapshotQuarantined && rep.RecordsQuarantined == 0 && rep.TruncatedBytes == 0
	return rep, err
}
