package search

// ObservationCount reports how many results the model has absorbed.
func (t *TPESampler) ObservationCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.scores)
}
