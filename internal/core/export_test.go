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
