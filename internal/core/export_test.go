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

// queuedLen reports how many calls the ring holds (queued, not in
// flight).
func (a *admission) queuedLen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.count
}

// inSystem reports queued plus in-flight calls.
func (a *admission) inSystem() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.count + a.inflight
}

// ringSlots reports how many call slots the ring has allocated.
func (a *admission) ringSlots() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.ring)
}

// pinnedSlots reports how many ring slots outside the queued run still
// reference a caller's context, reply channel, span or hook — each one a
// call the ring keeps reachable after it left the queue.
func (a *admission) pinnedSlots() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for i := a.count; i < len(a.ring); i++ {
		if c := &a.ring[a.slot(i)]; c.ctx != nil || c.out != nil || c.sp != nil || c.admSp != nil || c.stop != nil {
			n++
		}
	}
	return n
}
