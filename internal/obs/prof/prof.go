// Package prof is the profiling plane: it attributes CPU/heap profile
// samples to pipeline dimensions via runtime/pprof labels, and measures
// per-stage allocation cost with deterministic alloc probes surfaced as
// registry gauges.
//
// Label propagation rides the existing -debug-addr pprof endpoints: a
// profile captured from /debug/pprof/profile during a labelled run can
// be sliced per tenant, shard, bracket/rung, or fault class. Labels follow the context on the calling goroutine only, so
// pipeline stages that hop goroutines (the inference server's workers)
// re-apply them from the job's own fields.
package prof

import (
	"context"
	"runtime/pprof"
)

// Label keys of the pipeline taxonomy. Tune-side stages carry tenant,
// bracket, and rung (plus shard when dispatched by a cluster); serving
// stages carry tenant; retry attempts after an injected
// fault carry the fault class that killed the previous attempt.
const (
	KeyTenant     = "tenant"
	KeyShard      = "shard"
	KeyBracket    = "bracket"
	KeyRung       = "rung"
	KeyFaultClass = "fault_class"
)

// Do runs fn with the given pprof labels (alternating key, value)
// applied to the current goroutine for fn's duration, merged over any
// labels already on ctx. With no labels it degrades to a direct call —
// callers gate label propagation with their own Profile option, so the
// disabled path costs one branch and no allocation.
func Do(ctx context.Context, fn func(context.Context), kvs ...string) {
	if len(kvs) == 0 {
		fn(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels(kvs...), fn)
}
