package store

// Compact folds the WAL into a fresh snapshot now.
func (d *Durable) Compact() error {
	d.st.walMu.Lock()
	defer d.st.walMu.Unlock()
	if err := d.writable(); err != nil {
		return err
	}
	return d.compactLocked()
}

// Pending reports how many buffered entries await persistence.
func (w *WriteBehind) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending)
}

// PutBatch puts valid entries as one group commit (putBatch) and
// reports how many, a prefix, the store now holds.
func (s *Store) PutBatch(es []Entry) (int, error) { return s.putBatch(es) }

// plantHashMask narrows every index hash to mask, so that keys share
// probe chains, until the returned func restores it.
func plantHashMask(mask uint64) (restore func()) {
	old := hashMask
	hashMask = mask
	return func() { hashMask = old }
}
