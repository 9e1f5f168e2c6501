package fault

// SlowFsyncs counts injected slow fsyncs (they succeed, slowly).
func (f *FS) SlowFsyncs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.slow
}
