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
func (s *Store) PutBatch(es []Entry) (int, error) {
	keys := make([]string, len(es))
	for i, e := range es {
		keys[i] = e.key()
	}
	return s.putBatch(es, keys)
}
