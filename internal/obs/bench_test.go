package obs

import (
	"testing"
	"time"
)

// instrumentedSubmit mirrors the instrumentation sequence on the
// inference Submit hot path: one tracer nil check guarding span
// construction, plus the nil-safe counter hooks. With tr == nil and
// nil instruments this must compile down to a handful of pointer
// checks — the acceptance bar is ≤ 5 ns/op of overhead.
func instrumentedSubmit(tr *Tracer, requests *Counter, lat *Histogram, seq uint64) *Span {
	var sp *Span
	if tr != nil {
		sp = tr.Root(TrackServing, "request", seq, time.Duration(seq), Str("sig", "bench"))
	}
	requests.Add(1)
	lat.Observe(float64(seq))
	return sp
}

// baselineSubmit is the same shape with no instrumentation at all; the
// disabled-tracing overhead is BenchmarkTracingDisabled minus this.
//
//go:noinline
func baselineSubmit(seq uint64) uint64 { return seq + 1 }

func BenchmarkNoInstrumentation(b *testing.B) {
	var acc uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = baselineSubmit(uint64(i))
	}
	_ = acc
}

func BenchmarkTracingDisabled(b *testing.B) {
	var tr *Tracer
	var reg *Registry
	requests := reg.Counter("serving.requests")
	lat := reg.Histogram("serving.latency.ms", LatencyBucketsMS)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := instrumentedSubmit(tr, requests, lat, uint64(i))
		sp.End(time.Duration(i), Bool("cached", false))
	}
}

func BenchmarkTracingEnabled(b *testing.B) {
	tr := NewTracer()
	reg := NewRegistry()
	requests := reg.Counter("serving.requests")
	lat := reg.Histogram("serving.latency.ms", LatencyBucketsMS)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := instrumentedSubmit(tr, requests, lat, uint64(i))
		sp.End(time.Duration(i), Bool("cached", false))
	}
}

func BenchmarkRegistrySnapshot(b *testing.B) {
	reg := NewRegistry()
	for i := 0; i < 20; i++ {
		reg.Counter(string(rune('a'+i)) + ".count").Add(int64(i))
	}
	h := reg.Histogram("lat", LatencyBucketsMS)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i % 300))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = reg.Snapshot()
	}
}
