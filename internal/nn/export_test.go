package nn

// ParamCount returns the total number of scalar parameters. The
// performance model does not use it: it costs a trial at the paper's
// parameter count, Workload.PaperCost's.
func (n *Network) ParamCount() int {
	var c int
	for _, p := range n.params {
		c += p.Count()
	}
	return c
}
