package experiments

// BenchEntry is one experiment's record in the ledger `benchtab -json`
// writes and `tracetool check-bench` reads: wall time plus, for
// experiments carrying an alloc probe, the hot loop's allocation cost
// per operation. The alloc fields are pointers because absent-vs-zero
// matters: a missing field means the experiment carried no probe,
// while an explicit 0 is a measured allocation-free hot loop the
// regression gate must defend.
type BenchEntry struct {
	ID          string   `json:"id"`
	Title       string   `json:"title"`
	Rows        int      `json:"rows"`
	WallSeconds float64  `json:"wallSeconds"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
}

// BenchReport is the ledger: per-experiment regeneration times and
// probes, for CI trend tracking and the allocation gate.
type BenchReport struct {
	Experiments  []BenchEntry `json:"experiments"`
	TotalSeconds float64      `json:"totalSeconds"`
}
