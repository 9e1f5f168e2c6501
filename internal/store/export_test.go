package store

// Compact folds the WAL into a fresh snapshot now.
func (d *Durable) Compact() error {
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	if d.failed != nil {
		return d.failed
	}
	if d.closed {
		return ErrDurableClosed
	}
	return d.compactLocked()
}

// Pending reports how many buffered entries await persistence.
func (w *WriteBehind) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending)
}
