package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"time"

	"edgetune/internal/obs"
	"edgetune/internal/obs/flight"
	"edgetune/internal/obs/slo"
)

// Durable is the crash-consistent persistence layer of the historical
// store (§3.4): every mutation is appended to a CRC-checksummed
// write-ahead log and fsynced before it is acknowledged, and the log is
// periodically compacted into a JSON snapshot (storeFile: write temp,
// fsync, rename, fsync dir). Opening a durable store recovers by
// replaying the WAL over the newest valid snapshot: a torn tail is
// truncated, corrupt records are quarantined (never fatally rejected),
// and the salvage is reported through RecoveryReport, the
// "store.recovery.*" counters, and a recovery span.
//
// Attach semantics: the Durable owns its inner *Store — obtain it with
// Store() and use it exactly like a plain store. Put, SaveCheckpoint,
// and ClearCheckpoint are logged write-ahead under the store's mutex,
// so WAL order always matches apply order; Sync is "sync the WAL,
// compact if due".
type Durable struct {
	st *Store

	fsys     FS
	snapPath string
	walPath  string
	every    int

	wal          File
	walSize      int64
	sinceCompact int
	appendSeq    int64
	killAfter    int
	shipper      Shipper
	fr           *flight.Recorder
	// enc frames every append into one reused buffer: the frame an
	// append writes and ships is valid until the next append, and every
	// append runs under the store's mutex.
	enc *walEncoder
	// entry is the record slot of a put: the logged record points here
	// rather than at the caller's entry, which would move every entry a
	// store puts to the heap. Guarded, like enc, by the store's mutex.
	entry Entry

	failed   error // sticky: the WAL could not be repaired in place
	closed   bool
	closeErr error

	recovery RecoveryReport

	mAppends     *obs.Counter
	mAppendErrs  *obs.Counter
	mWALBytes    *obs.Counter
	mCompactions *obs.Counter

	sloDurability *slo.Objective
}

// ErrDurableClosed is returned by mutations after Close.
var ErrDurableClosed = errors.New("store: durable store closed")

// Shipper receives every durably acknowledged WAL frame, in append
// order, while the store's mutex is held — the hook the cluster layer
// uses to replicate a shard's log to its follower. The frame is the raw
// on-disk encoding (length prefix, CRC, payload), so appending it
// verbatim to another WAL file yields a valid log. The frame is
// borrowed for the call: it is the store's reused frame buffer, which
// the next append overwrites, so a Shipper that keeps a frame past Ship
// keeps a copy. Ship must not call back into the store.
type Shipper interface {
	Ship(seq int64, frame []byte)
}

// KillExitCode is the exit status of the chaos kill switch
// (DurableOptions.KillAfterAppends): a deliberate, recognisable
// process death right after a durably acknowledged append.
const KillExitCode = 3

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// SnapshotPath is the JSON snapshot file (storeFile, or its
	// bare-array predecessor): a store file written before the WAL
	// existed opens as the first snapshot. The write-ahead log lives
	// beside it at SnapshotPath + ".wal". Required.
	SnapshotPath string
	// SnapshotEvery compacts the WAL into a fresh snapshot once this
	// many records accumulate (default 256; negative disables
	// auto-compaction, Close still compacts).
	SnapshotEvery int
	// FS is the filesystem (default OSFS{}); tests inject fault.FS.
	FS FS
	// Metrics receives the wal/snapshot/recovery counters (nil = off).
	Metrics *obs.Registry
	// SLO receives the "store/durability" objective (nil = off).
	SLO *slo.Evaluator
	// Trace receives a "store/recover" span describing the salvage
	// (nil = off).
	Trace *obs.Tracer
	// KillAfterAppends, when positive, terminates the whole process
	// with KillExitCode immediately after the Nth durably acknowledged
	// WAL append — the process-level crash chaos hook. The acknowledged
	// record is on disk; the in-memory ack never reaches the caller,
	// exactly like a power cut between fsync and reply.
	KillAfterAppends int
	// Shipper, when non-nil, receives every durably acknowledged WAL
	// frame for replication (nil = no replication).
	Shipper Shipper
	// Flight receives WAL append/recovery events on the flight
	// recorder's timeline, stamped on the same operation-indexed clock
	// as the durability SLO (nil = not recorded).
	Flight *flight.Recorder
}

// RecoveryReport describes what OpenDurable salvaged.
type RecoveryReport struct {
	// SnapshotSource is which snapshot generation seeded the state:
	// "snapshot", "previous" (the pre-compaction generation), or "none".
	SnapshotSource string `json:"snapshotSource"`
	// SnapshotQuarantined reports a corrupt snapshot moved aside to
	// <snapshot>.quarantine instead of being deleted.
	SnapshotQuarantined bool `json:"snapshotQuarantined,omitempty"`
	// RecordsReplayed counts WAL records applied over the snapshot.
	RecordsReplayed int `json:"recordsReplayed"`
	// RecordsQuarantined counts WAL records (and snapshot entries)
	// whose checksum or content was corrupt; their raw bytes are
	// preserved in <wal>.quarantine.
	RecordsQuarantined int `json:"recordsQuarantined"`
	// TruncatedBytes counts torn-tail bytes cut off the WAL.
	TruncatedBytes int64 `json:"truncatedBytes"`
	// Entries and Checkpoints are the recovered logical state.
	Entries     int `json:"entries"`
	Checkpoints int `json:"checkpoints"`
}

// OpenDurable opens (or creates) a durable store rooted at
// opts.SnapshotPath, running crash recovery first. It never fails on
// corruption — only on real I/O errors from the filesystem itself.
func OpenDurable(opts DurableOptions) (*Durable, error) {
	if opts.SnapshotPath == "" {
		return nil, errors.New("store: durable store needs a snapshot path")
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = 256
	}
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	d := &Durable{
		st:        New(),
		fsys:      opts.FS,
		enc:       newWALEncoder(),
		snapPath:  opts.SnapshotPath,
		walPath:   opts.SnapshotPath + ".wal",
		every:     opts.SnapshotEvery,
		killAfter: opts.KillAfterAppends,
		shipper:   opts.Shipper,
		fr:        opts.Flight,

		mAppends:     opts.Metrics.Counter("store.wal.appends"),
		mAppendErrs:  opts.Metrics.Counter("store.wal.append-errors"),
		mWALBytes:    opts.Metrics.Counter("store.wal.bytes"),
		mCompactions: opts.Metrics.Counter("store.snapshot.compactions"),
	}
	if opts.SLO != nil {
		d.sloDurability = opts.SLO.Register(slo.Spec{
			Name:        "store/durability",
			Description: "99.9% of historical-store mutations are durably acknowledged (WAL append + fsync)",
			Target:      0.999,
		})
	}

	if err := d.recover(); err != nil {
		return nil, err
	}

	wal, err := d.fsys.OpenAppend(d.walPath)
	if err != nil {
		return nil, fmt.Errorf("store: open wal %s: %w", d.walPath, err)
	}
	d.wal = wal
	d.st.dur = d

	if reg := opts.Metrics; reg != nil {
		reg.Counter("store.recovery.replayed").Add(int64(d.recovery.RecordsReplayed))
		reg.Counter("store.recovery.quarantined").Add(int64(d.recovery.RecordsQuarantined))
		reg.Counter("store.recovery.truncated-bytes").Add(d.recovery.TruncatedBytes)
	}
	// Recovery lands at time zero on the flight timeline: it happens
	// before the run's first simulated instant. A salvage — anything
	// quarantined or a torn tail cut off — is an incident in its own
	// right, dossiered even when the run then proceeds cleanly.
	d.fr.Record(0, flight.KindWAL, "recover", d.recovery.SnapshotSource,
		int64(d.recovery.RecordsReplayed), int64(d.recovery.RecordsQuarantined))
	if d.recovery.RecordsQuarantined > 0 || d.recovery.TruncatedBytes > 0 {
		d.fr.Trigger(flight.TriggerSalvage, 0, d.recovery.SnapshotSource)
	}
	if opts.Trace != nil {
		sp := opts.Trace.Root(obs.TrackStore, "store/recover", 0, 0,
			obs.Str("snapshot", d.recovery.SnapshotSource),
			obs.Int("replayed", int64(d.recovery.RecordsReplayed)),
			obs.Int("quarantined", int64(d.recovery.RecordsQuarantined)),
			obs.Int("truncatedBytes", d.recovery.TruncatedBytes),
			obs.Int("entries", int64(d.recovery.Entries)),
			obs.Int("checkpoints", int64(d.recovery.Checkpoints)))
		sp.End(0)
	}
	return d, nil
}

// Store returns the attached store; use it exactly like a plain one.
func (d *Durable) Store() *Store { return d.st }

// Recovery reports what opening this store salvaged.
func (d *Durable) Recovery() RecoveryReport { return d.recovery }

// recover seeds the in-memory store from the newest valid snapshot and
// replays the WAL over it, repairing the log files in place.
func (d *Durable) recover() error {
	rr := &d.recovery
	rr.SnapshotSource = "none"

	// Newest valid snapshot: the current generation, then the previous
	// one kept by compaction. A corrupt generation is moved aside to
	// .quarantine — recovery degrades, it never destroys evidence.
	for _, cand := range []struct{ path, source string }{
		{d.snapPath, "snapshot"},
		{d.snapPath + ".prev", "previous"},
	} {
		data, err := d.fsys.ReadFile(cand.path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("store: read snapshot %s: %w", cand.path, err)
		}
		file, perr := parseStoreFile(data)
		if perr != nil {
			if qerr := d.fsys.Rename(cand.path, cand.path+".quarantine"); qerr == nil {
				d.fsys.SyncDir(cand.path)
			}
			rr.SnapshotQuarantined = true
			continue
		}
		rr.SnapshotSource = cand.source
		rr.RecordsQuarantined += d.st.applyStoreFile(file)
		break
	}
	// A leftover temp file from an interrupted atomic write is dead
	// weight either way: the rename never happened.
	d.fsys.Remove(d.snapPath + ".tmp")

	// A snapshot with no log beside it is a store last written before
	// the WAL existed (or a fresh path): an empty log replays the same.
	data, err := d.fsys.ReadFile(d.walPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: read wal %s: %w", d.walPath, err)
	}
	sc := scanWAL(data)
	rr.RecordsQuarantined += d.st.applyRecords(sc.Records)
	rr.RecordsReplayed += len(sc.Records)
	rr.RecordsQuarantined += len(sc.Quarantined)
	rr.TruncatedBytes += sc.TruncatedBytes
	if len(sc.Quarantined) > 0 {
		d.writeQuarantine(sc.Quarantined)
	}
	if sc.TruncatedBytes > 0 {
		if err := d.fsys.Truncate(d.walPath, sc.ValidEnd); err != nil {
			return fmt.Errorf("store: truncate torn wal tail: %w", err)
		}
	}
	d.walSize = sc.ValidEnd
	d.sinceCompact = len(sc.Records)
	rr.Entries = len(d.st.entries)
	rr.Checkpoints = len(d.st.checkpoints)
	return nil
}

// applyStoreFile loads a parsed snapshot into st, skipping invalid
// entries instead of rejecting the whole snapshot, and returns how many
// it skipped. Recovery and Scrub both load snapshots through it.
func (st *Store) applyStoreFile(file storeFile) (rejected int) {
	for _, e := range file.Entries {
		if st.put(e) != nil {
			rejected++
		}
	}
	for k, v := range file.Checkpoints {
		if _, err := st.SaveCheckpoint(k, v); err != nil {
			rejected++
		}
	}
	if file.Stats != nil {
		st.mu.Lock()
		st.hits, st.misses = file.Stats.Hits, file.Stats.Misses
		st.mu.Unlock()
	}
	return rejected
}

// applyRecords replays WAL records into st and returns how many it
// rejected. Records are validated at scan time, so a rejection (which
// cannot happen today) only counts. Recovery and Scrub both replay
// through it.
func (st *Store) applyRecords(recs []walRecord) (rejected int) {
	for _, rec := range recs {
		var err error
		switch rec.Op {
		case walOpPut:
			err = st.put(*rec.Entry)
		case walOpCheckpoint:
			_, err = st.SaveCheckpoint(rec.Key, rec.Data)
		case walOpClear:
			st.ClearCheckpoint(rec.Key)
		}
		if err != nil {
			rejected++
		}
	}
	return rejected
}

// writeQuarantine preserves corrupt raw frames next to the WAL. Best
// effort: quarantine failure must never fail recovery.
func (d *Durable) writeQuarantine(frames [][]byte) {
	f, err := d.fsys.OpenAppend(d.walPath + ".quarantine")
	if err != nil {
		return
	}
	for _, frame := range frames {
		if _, err := f.Write(frame); err != nil {
			break
		}
	}
	f.Sync()
	f.Close()
}

// appendPutLocked logs the put of e through the record slot. Called
// with the store's mutex held, like appendLocked.
func (d *Durable) appendPutLocked(e Entry) error {
	d.entry = e
	err := d.appendLocked(walRecord{Op: walOpPut, Entry: &d.entry})
	d.entry = Entry{}
	return err
}

// appendLocked logs one mutation write-ahead. Called with the store's
// mutex held, before the in-memory apply; an error means the mutation
// is rejected and memory stays unchanged. A failed partial append is
// repaired by truncating the log back to its last good length, so one
// disk fault does not poison every later record.
func (d *Durable) appendLocked(rec walRecord) error {
	if d.failed != nil {
		return d.failed
	}
	if d.closed {
		return ErrDurableClosed
	}
	frame, err := d.enc.frame(rec)
	if err != nil {
		return err
	}
	n, werr := d.wal.Write(frame)
	if werr == nil && n < len(frame) {
		werr = io.ErrShortWrite
	}
	if werr == nil {
		werr = d.wal.Sync()
	}
	d.appendSeq++
	// The durability SLO runs on an operation-indexed clock — append
	// sequence as milliseconds — deterministic and monotonic without
	// threading the tuner's simulated clock into the storage layer.
	at := time.Duration(d.appendSeq) * time.Millisecond
	if werr != nil {
		d.mAppendErrs.Inc()
		d.sloDurability.Record(at, false)
		d.fr.Record(at, flight.KindWAL, "append-error", "", d.appendSeq, int64(n))
		if n > 0 {
			if terr := d.fsys.Truncate(d.walPath, d.walSize); terr != nil {
				d.failed = fmt.Errorf("store: wal unrepairable after failed append: %w", terr)
			}
		}
		return fmt.Errorf("store: wal append: %w", werr)
	}
	d.walSize += int64(len(frame))
	d.sinceCompact++
	d.mAppends.Inc()
	d.mWALBytes.Add(int64(len(frame)))
	d.sloDurability.Record(at, true)
	d.fr.Record(at, flight.KindWAL, "append", "", d.appendSeq, int64(len(frame)))
	if d.shipper != nil {
		d.shipper.Ship(d.appendSeq, frame)
	}
	if d.killAfter > 0 && d.appendSeq >= int64(d.killAfter) {
		os.Exit(KillExitCode) // chaos: power loss right after the ack'd fsync
	}
	return nil
}

// persistLocked is the durable half of Store.Sync: the WAL already
// holds every acknowledged mutation, so it compacts when enough log has
// accumulated and otherwise just re-asserts the sync.
func (d *Durable) persistLocked() error {
	if d.failed != nil {
		return d.failed
	}
	if d.closed {
		return ErrDurableClosed
	}
	if d.every > 0 && d.sinceCompact >= d.every {
		return d.compactLocked()
	}
	return d.wal.Sync()
}

// compactLocked folds the current state into a fresh snapshot and
// resets the WAL. The previous snapshot generation is kept as .prev so
// recovery always has a fallback; the crash windows are all safe:
// before the rename the old snapshot + full WAL recover, between
// rename and truncate the new snapshot + an idempotent replay recover.
func (d *Durable) compactLocked() error {
	file := d.st.snapshotFileLocked()
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return fmt.Errorf("store: marshal snapshot: %w", err)
	}
	if size, serr := d.fsys.Size(d.snapPath); serr == nil && size > 0 {
		if err := d.fsys.Rename(d.snapPath, d.snapPath+".prev"); err != nil {
			return fmt.Errorf("store: rotate snapshot: %w", err)
		}
		if err := d.fsys.SyncDir(d.snapPath); err != nil {
			return fmt.Errorf("store: fsync dir: %w", err)
		}
	}
	if err := atomicWriteFile(d.fsys, d.snapPath, data); err != nil {
		return err
	}
	if err := d.fsys.Truncate(d.walPath, 0); err != nil {
		return fmt.Errorf("store: reset wal: %w", err)
	}
	d.walSize = 0
	d.sinceCompact = 0
	d.mCompactions.Inc()
	return nil
}

// Close compacts one last time and closes the log. Idempotent. Even
// when compaction fails (the disk died), every acknowledged mutation
// is still in the WAL, so the next OpenDurable loses nothing.
func (d *Durable) Close() error {
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	if d.closed {
		return d.closeErr
	}
	var err error
	if d.failed == nil {
		err = d.compactLocked()
	} else {
		err = d.failed
	}
	if cerr := d.wal.Close(); err == nil {
		err = cerr
	}
	d.closed = true
	d.closeErr = err
	return err
}

// Abandon closes the WAL handle without the final compaction — the
// disk image stays exactly as the last acknowledged append left it,
// as if the process died there. Idempotent; used by the cluster layer
// to depose a killed primary whose directory must remain untouched
// evidence (recoverable, never mutated after the kill).
func (d *Durable) Abandon() error {
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	if d.closed {
		return d.closeErr
	}
	err := d.wal.Close()
	d.closed = true
	d.closeErr = err
	return err
}
