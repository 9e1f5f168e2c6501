package prof

import (
	"runtime"
	"sync"

	"edgetune/internal/obs"
)

// Probe is one stage's allocation measurement: the average heap
// allocations and bytes per operation over Runs runs of the stage.
type Probe struct {
	// Stage names the hot loop measured ("nn.minibatch-step",
	// "serve.cache-hit", ...). It keys the published gauges.
	Stage string `json:"stage"`
	// Runs is how many operations the averages cover.
	Runs int `json:"runs"`
	// AllocsPerOp and BytesPerOp are the per-operation averages.
	AllocsPerOp float64 `json:"allocsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp"`
}

// measureMu is held from Measure's GOMAXPROCS pin to its restore: two
// overlapping pins would each restore what they found, and the one that
// found the other's 1 leaves the whole process on one P for good.
var measureMu sync.Mutex

// Measure runs fn runs times and reports the average allocations and
// bytes per run, testing.AllocsPerRun style: one untimed warm-up run
// (lazy initialisation is setup, not steady state), GOMAXPROCS pinned
// to 1 so no other goroutine's allocations pollute the window, and
// runtime.MemStats deltas around the measured loop.
//
// Determinism caveats: allocation counts are a property of the code
// path, not the scheduler, so for a single-goroutine fn the probe is
// stable run to run — but a fn that hands work to other goroutines, or
// one racing a concurrent GC's mallocs, can wobble by a few allocs.
// Probe values therefore feed gauges and internal/hotloop's allocation
// ledger (whose test rounds the count and allows bytes 1 %), never
// byte-compared digests.
func Measure(stage string, runs int, fn func()) Probe {
	if runs < 1 {
		runs = 1
	}
	measureMu.Lock()
	defer measureMu.Unlock()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm-up: lazy paths allocate once and never again

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return Probe{
		Stage:       stage,
		Runs:        runs,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(runs),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(runs),
	}
}

// Publish surfaces the probe as registry gauges —
// "prof.allocs-per-op.<stage>" and "prof.bytes-per-op.<stage>" — so
// the values ride every snapshot surface the registry already has:
// Report.Metrics, /metrics, /metrics.json, and /metrics/prom.
func (p Probe) Publish(reg *obs.Registry) {
	reg.Gauge("prof.allocs-per-op." + p.Stage).Set(p.AllocsPerOp)
	reg.Gauge("prof.bytes-per-op." + p.Stage).Set(p.BytesPerOp)
}
