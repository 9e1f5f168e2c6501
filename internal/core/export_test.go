package core

// PendingWrites reports how many accepted results still sit in the
// write-behind buffer, as its store.writebehind.pending gauge shows; it
// is zero after a successful Drain or Flush. The gauge needs a Recorder.
func (s *InferenceServer) PendingWrites() int {
	reg := s.opts.Recorder.Registry()
	if reg == nil {
		panic("core: PendingWrites on a server without a Recorder")
	}
	return int(reg.Gauge("store.writebehind.pending").Value())
}

// queuedLen reports the queued (not in-flight) job count.
func (a *admission) queuedLen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}

// inSystem reports queued plus in-flight jobs.
func (a *admission) inSystem() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue) + a.inflight
}
