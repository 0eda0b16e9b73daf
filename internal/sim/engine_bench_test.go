package sim

import (
	"math/rand"
	"testing"
	"time"
)

// BenchmarkEngineScheduleStep measures the engine's hot loop in steady
// state: one Schedule plus one Step per iteration with a prebuilt
// closure. With the pooled event queue this must run at 0 allocs/op.
func BenchmarkEngineScheduleStep(b *testing.B) {
	e := New(1)
	fn := func() {}
	// Warm the queue so slices reach their steady-state capacity.
	for i := 0; i < 1024; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Microsecond, fn)
		e.Step()
	}
}

// BenchmarkEngineScheduleStopStep exercises slot churn: half the events
// are cancelled before they fire, as protocol watchdogs do.
func BenchmarkEngineScheduleStopStep(b *testing.B) {
	e := New(1)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := e.Schedule(time.Microsecond, fn)
		e.Schedule(2*time.Microsecond, fn)
		t.Stop()
		e.Step()
	}
}

// burstMix returns n delays in burst-k8's proportions: per thousand
// events, 366 link or resubmission hops of 100 µs, 167 rule installs of
// 1 ms, 44 register writes of 50 µs, 17 of 500 µs, and 406 spread over
// 65 per-switch control-channel latencies between 0.5 and 8 ms.
func burstMix(n int) []time.Duration {
	rng := rand.New(rand.NewSource(1))
	ctl := make([]time.Duration, 65)
	for i := range ctl {
		ctl[i] = 500*time.Microsecond + time.Duration(rng.Int63n(int64(7500*time.Microsecond)))
	}
	out := make([]time.Duration, n)
	for i := range out {
		switch r := rng.Intn(1000); {
		case r < 366:
			out[i] = 100 * time.Microsecond
		case r < 533:
			out[i] = time.Millisecond
		case r < 577:
			out[i] = 50 * time.Microsecond
		case r < 594:
			out[i] = 500 * time.Microsecond
		default:
			out[i] = ctl[rng.Intn(len(ctl))]
		}
	}
	return out
}

// BenchmarkEngineBurstMix measures one Step plus one Schedule with
// about 2.4k events pending in burst-k8's delay mix, the queue depth
// and delay stream of the workload, where BenchmarkEngineScheduleStep
// keeps a queue of one entry.
func BenchmarkEngineBurstMix(b *testing.B) {
	const pending = 2400
	e := New(1)
	fn := func() {}
	delays := burstMix(1 << 14)
	for i := 0; i < pending; i++ {
		e.Schedule(delays[i], fn)
	}
	// Run the mix a while so lanes and slices reach steady state.
	for i := 0; i < 1<<16; i++ {
		e.Step()
		e.Schedule(delays[i&(len(delays)-1)], fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		e.Schedule(delays[i&(len(delays)-1)], fn)
	}
}
