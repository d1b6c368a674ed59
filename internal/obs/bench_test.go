package obs

import (
	"io"
	"testing"
)

// These benchmarks back the zero-allocation claim for instrumented hot
// paths: CI asserts 0 allocs/op on every BenchmarkObs* and BenchmarkTrace*
// result, for the nil-off fast path and for live recording alike.

func BenchmarkObsCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("samr_bench_total", "b", Label{"rank", "0"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("samr_bench_seconds", "b", DurationBuckets())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(3.5e-4)
	}
}

// BenchmarkObsSpanEnabled is a metrics-only span: histogram, no record.
func BenchmarkObsSpanEnabled(b *testing.B) {
	r := New(Config{Seed: 1}).Recorder(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.SetPos(0, i)
		r.Span(PhaseCompute).End()
	}
}

func BenchmarkObsSpanDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.SetPos(0, i)
		r.Span(PhaseCompute).End()
	}
}

func BenchmarkTraceOffMessage(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Send(1, KindHalo, 4096, 0)
		r.RecvUntraced(1, KindHalo, 4096)
	}
}

// BenchmarkTraceOnSpan is the full span path: histogram plus record.
func BenchmarkTraceOnSpan(b *testing.B) {
	r := New(Config{Seed: 1, Trace: io.Discard}).Recorder(3)
	r.SetPos(0, 0)
	// Warm the scratch buffer so steady state is measured.
	r.Span(PhaseCompute).End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.SetPos(0, i)
		r.Span(PhaseCompute).End()
	}
}

func BenchmarkTraceOnMessage(b *testing.B) {
	r := New(Config{Seed: 1, Trace: io.Discard}).Recorder(3)
	r.SetPos(0, 0)
	r.Send(1, KindHalo, 4096, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Send(1, KindHalo, 4096, int64(i))
		r.Recv(2, KindMig, 4096, 0, int32(i), int64(i))
	}
}

func BenchmarkTraceOnWaitSpan(b *testing.B) {
	r := New(Config{Seed: 1, Trace: io.Discard}).Recorder(0)
	r.WaitSpan(PhaseHaloWait, 1).EndGated(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.WaitSpan(PhaseHaloWait, 1).EndGated(int64(i))
	}
}
